// Package atomicfile writes files atomically: data lands in a
// temporary file in the destination directory and is renamed into
// place, so readers never observe a truncated or half-written file and
// an interrupted writer can never corrupt an existing one. Load-test
// documents, metrics snapshots, cache entries, job snapshots and profile
// captures are written this way.
package atomicfile

import (
	"fmt"
	"os"
	"path/filepath"
)

// WriteFile writes data to path atomically with the given permissions.
// The temporary file is created in path's directory so the final
// rename cannot cross filesystems. On any error the temporary file is
// removed and the previous contents of path (if any) are untouched.
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
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("atomicfile: close %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("atomicfile: %w", err)
	}
	tmpName = "" // renamed away; nothing to clean up
	return nil
}
