// Package faultfs is the injectable I/O seam under the shard queue
// and the serve result store: an interface over the filesystem
// operations those pipelines perform (read, write, rename, link,
// remove, stat, mkdir, directory sync) plus the clock, with two
// implementations — the real OS, and a deterministic fault-injecting
// wrapper driven by an explicit schedule ("fail the 3rd rename with
// ESTALE", "tear the 5th write at byte 17", "skew the clock by 2h").
//
// The point is reproducibility: chaos scenarios that used to exist
// only as one hardcoded CI drill become seeded property tests. A
// schedule is data; the same schedule against the same workload
// injects the same faults at the same operations, so a failing chaos
// seed is a bug report, not a flake.
//
// The package also owns the transient/permanent error taxonomy the
// retry layer keys on: Transient reports whether an error is the kind
// a networked filesystem emits spuriously (ESTALE, EINTR, EIO,
// resource pressure) and hence worth a bounded backoff-and-retry,
// versus conditions retrying cannot fix (ENOENT, EEXIST, EACCES,
// ENOSPC, corruption).
//
// Durability is part of the seam's contract: WriteFileSync fsyncs the
// file before returning and SyncDir fsyncs a directory, so callers
// can build crash-safe write-temp → rename → sync-dir sequences on
// any FS implementation and fault injection exercises each step.
//
// The package also owns the quarantine layout every reader of sealed
// documents shares: Quarantine moves a corrupt file to corrupt/<name>
// (<name>.2, .3, … on a collision) beside a <name>.reason file.
package faultfs

import (
	"errors"
	"io/fs"
	"os"
	"syscall"
	"time"
)

// FS is the filesystem-plus-clock seam. All paths are OS paths, not
// io/fs slash paths; semantics match the corresponding os functions.
type FS interface {
	ReadFile(name string) ([]byte, error)
	// WriteFile writes data like os.WriteFile: buffered, no fsync.
	// Use it for scratch data whose loss a crash already implies.
	WriteFile(name string, data []byte, perm fs.FileMode) error
	// WriteFileSync is WriteFile plus an fsync of the file before it
	// returns, for artifacts that must survive a host crash.
	WriteFileSync(name string, data []byte, perm fs.FileMode) error
	// Append appends data to name (created if missing), buffered, no
	// fsync — for append-only logs whose tail a crash may truncate
	// (access journals, telemetry). Fault matching counts it in the
	// write class.
	Append(name string, data []byte, perm fs.FileMode) error
	Rename(oldname, newname string) error
	Link(oldname, newname string) error
	Remove(name string) error
	Stat(name string) (fs.FileInfo, error)
	MkdirAll(name string, perm fs.FileMode) error
	// SyncDir fsyncs the directory itself, making preceding renames
	// and links in it durable. Filesystems that cannot sync a
	// directory degrade to a no-op rather than an error.
	SyncDir(name string) error
	Now() time.Time
}

// OS returns the real filesystem and clock.
func OS() FS { return osFS{} }

type osFS struct{}

func (osFS) ReadFile(name string) ([]byte, error) { return readFile(name) }

func (osFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	return os.WriteFile(name, data, perm)
}

func (osFS) WriteFileSync(name string, data []byte, perm fs.FileMode) error {
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (osFS) Append(name string, data []byte, perm fs.FileMode) error {
	return appendFile(name, data, perm)
}

func (osFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }
func (osFS) Link(oldname, newname string) error   { return os.Link(oldname, newname) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) Stat(name string) (fs.FileInfo, error) {
	return os.Stat(name)
}
func (osFS) MkdirAll(name string, perm fs.FileMode) error { return os.MkdirAll(name, perm) }

func (osFS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	err = d.Sync()
	d.Close()
	// Directory fsync is unsupported on some filesystems; the rename
	// itself is still atomic there, so degrade silently.
	if err != nil && (errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) || errors.Is(err, syscall.EBADF)) {
		return nil
	}
	return err
}

func (osFS) Now() time.Time { return time.Now() }

// Transient reports whether err is a transient I/O condition worth a
// bounded retry: the staleness/interruption family networked
// filesystems emit spuriously, plus resource-pressure errnos that
// clear on their own. Everything else — not-exist, already-exists,
// permission, disk-full, corruption — is permanent: retrying cannot
// fix it and only delays the real recovery (quarantine, steal, or a
// loud error).
func Transient(err error) bool {
	for _, e := range []error{
		syscall.ESTALE, syscall.EINTR, syscall.EIO, syscall.EAGAIN,
		syscall.EBUSY, syscall.ETIMEDOUT, syscall.ENFILE, syscall.EMFILE,
	} {
		if errors.Is(err, e) {
			return true
		}
	}
	return false
}
