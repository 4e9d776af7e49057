// Package atomicfile writes files atomically and durably: data lands in
// a temporary file in the destination directory, is fsynced, renamed
// into place, and the directory is fsynced, so readers never observe a
// truncated or half-written file, an interrupted writer can never
// corrupt an existing one, and a write that returned nil survives a
// power cut. Load-test documents, metrics snapshots and profile
// captures are written this way.
package atomicfile

import (
	"fmt"
	"os"
	"path/filepath"
)

// WriteFile writes data to path atomically with the given permissions.
// The temporary file is created in path's directory so the final
// rename cannot cross filesystems, and both it and the directory are
// fsynced, so the new contents are on stable storage when WriteFile
// returns nil. On any error the temporary file is removed and the
// previous contents of path (if any) are untouched.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return fmt.Errorf("atomicfile: %w", err)
	}
	tmpName := tmp.Name()
	defer func() {
		if tmpName != "" {
			os.Remove(tmpName)
		}
	}()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("atomicfile: write %s: %w", path, err)
	}
	if err := tmp.Chmod(perm); err != nil {
		tmp.Close()
		return fmt.Errorf("atomicfile: chmod %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("atomicfile: sync %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("atomicfile: close %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("atomicfile: %w", err)
	}
	tmpName = "" // renamed away; nothing to clean up
	// The rename is durable only once the directory entry is.
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("atomicfile: sync dir %s: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("atomicfile: sync dir %s: %w", dir, err)
	}
	return nil
}
