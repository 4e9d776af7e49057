package atomicfile

import "os"

// FS is the filesystem surface Records (and so the job store and the
// disk cache tier) is written against. Production code uses OS(); crash
// and disk-chaos tests inject atomicfile/faultfs.FS, which decorates an
// inner FS with seeded bit flips and ENOSPC — the same
// wrap-the-transport pattern as internal/mpi/faultcomm.
type FS interface {
	// WriteFile writes data to path atomically and durably (see the
	// package WriteFile): readers never observe a partial file, and on
	// error the previous contents are untouched.
	WriteFile(path string, data []byte, perm os.FileMode) error
	// ReadFile returns the contents of path.
	ReadFile(path string) ([]byte, error)
	// Rename moves a file (same-directory renames are atomic).
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(path string) error
	// MkdirAll creates a directory tree.
	MkdirAll(path string, perm os.FileMode) error
	// ReadDir lists a directory.
	ReadDir(path string) ([]os.DirEntry, error)
}

// OS returns the real-filesystem FS.
func OS() FS { return osFS{} }

type osFS struct{}

func (osFS) WriteFile(path string, data []byte, perm os.FileMode) error {
	return WriteFile(path, data, perm)
}

func (osFS) ReadFile(path string) ([]byte, error)         { return os.ReadFile(path) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(path string) error                     { return os.Remove(path) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) ReadDir(path string) ([]os.DirEntry, error)   { return os.ReadDir(path) }
