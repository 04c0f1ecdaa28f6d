// Package fault is the deterministic fault-injection layer under the
// engine's durable I/O (DESIGN.md §6). The WAL, snapshot, and manifest code
// perform every file operation through an injectable FS; production code
// passes OS{} (the real filesystem) while the crash-torture harness passes an
// Injector whose seeded schedule can fail or delay writes and fsyncs, tear
// the last write at a byte offset, corrupt written bytes, and trigger
// process-abandon "crashes" at named points inside the engine (wal append,
// commit fold, checkpoint, ghost erase, system-transaction commit).
//
// The model is fail-stop: once a scheduled fault fires, the injector enters a
// permanently crashed state in which every subsequent file mutation and every
// point hook fails with ErrCrashed — exactly what a process that died at that
// instant would have written. The torture runner then abandons the instance,
// reopens the directory with the real filesystem, runs recovery, and checks
// the engine's invariants.
package fault

import (
	"errors"
	"io"
	"os"
	"time"
)

// ErrCrashed is returned by every operation after the injector's scheduled
// fault has fired: the simulated process is dead.
var ErrCrashed = errors.New("fault: injected crash")

// Point names an engine location where a scheduled crash can fire. The
// engine calls Hooks.Hit at each; a non-nil error must abort the operation.
type Point string

// The named crash points armed by the torture schedule.
const (
	// PointWALAppend fires in the kernel's logOp chokepoint, before an
	// operation record reaches the WAL buffer.
	PointWALAppend Point = "wal-append"
	// PointFold fires at commit, before one escrow fold record is logged.
	PointFold Point = "fold"
	// PointCheckpoint fires after checkpoint quiesces, before the snapshot
	// is written.
	PointCheckpoint Point = "checkpoint"
	// PointGhostErase fires inside the ghost cleaner's system transaction,
	// before the erase record is logged.
	PointGhostErase Point = "ghost-erase"
	// PointSysCommit fires before a system transaction's commit record is
	// appended.
	PointSysCommit Point = "sys-commit"
	// PointDeferredApply fires in the deferred applier before each component
	// fold. It is NOT part of Points (the torture schedule never crashes
	// here); its use is delay injection — a Hooks that sleeps at this point
	// slows the applier to exercise the freshness-SLO watchdog.
	PointDeferredApply Point = "deferred-apply"
	// PointViewCorrupt fires in DB.CorruptViewRow, the deliberate in-place
	// view corruption behind the scrubber's detection test. NOT part of
	// Points — it exists so an injector can observe (or veto) the corruption,
	// never as a crash site.
	PointViewCorrupt Point = "view-corrupt"
)

// Points lists every named crash point (the torture schedule picks from
// these; PointDeferredApply is deliberately excluded).
var Points = []Point{PointWALAppend, PointFold, PointCheckpoint, PointGhostErase, PointSysCommit}

// Hooks receives crash-point notifications. A nil Hooks in core.Options
// disables the points entirely.
type Hooks interface {
	// Hit reports reaching p. A non-nil error (ErrCrashed) aborts the
	// surrounding operation; the engine must propagate it.
	Hit(p Point) error
}

// File is the subset of *os.File the engine's durable paths use.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Sync is fsync: it must not return until the file's contents are
	// durable (or the fault schedule says the fsync failed).
	Sync() error
}

// FS is the filesystem surface under the WAL, snapshot, and manifest code.
// Implementations must be safe for concurrent use.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	ReadFile(name string) ([]byte, error)
	WriteFile(name string, data []byte, perm os.FileMode) error
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Truncate(name string, size int64) error
	Stat(name string) (os.FileInfo, error)
	MkdirAll(path string, perm os.FileMode) error
	ReadDir(name string) ([]os.DirEntry, error)
}

// Clock abstracts time for the injector's delay faults, so tests can run
// seeded schedules without real sleeps.
type Clock interface {
	Sleep(d time.Duration)
}

// RealClock sleeps on the wall clock.
type RealClock struct{}

// Sleep implements Clock.
func (RealClock) Sleep(d time.Duration) { time.Sleep(d) }

// OS is the real filesystem.
type OS struct{}

// OpenFile opens name with os.OpenFile.
func (OS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

// ReadFile reads the whole file.
func (OS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// WriteFile writes data to name.
func (OS) WriteFile(name string, data []byte, perm os.FileMode) error {
	return os.WriteFile(name, data, perm)
}

// Rename renames oldpath to newpath.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove removes name.
func (OS) Remove(name string) error { return os.Remove(name) }

// Truncate truncates name to size.
func (OS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

// Stat stats name.
func (OS) Stat(name string) (os.FileInfo, error) { return os.Stat(name) }

// MkdirAll makes path and parents.
func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

// ReadDir lists name.
func (OS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }
