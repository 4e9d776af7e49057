package atomicfile

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"strings"
)

// Records is a directory of checksummed records, one file per name,
// each written whole through FS.WriteFile — so a crash mid-Put leaves
// the old record or none, never a torn one, and a Put that returned nil
// is on stable storage. A SHA-256 footer is verified on every read.
// Damage is never returned: a file that fails its check is quarantined
// under a ".bad" suffix (kept for post-mortems, never rescanned), reads
// as absent, and is reported to the caller so it can be counted.
//
// File layout: [4B big-endian name length][name][value][32B SHA-256
// over everything before the footer]. Embedding the name makes the
// directory self-describing, which is what lets Scan rebuild state
// after a restart without an index file.
type Records struct {
	dir    string
	suffix string
	fsys   FS
}

// OpenRecords opens (creating if needed) the records under dir whose
// files end in suffix. fsys nil selects the real filesystem; tests
// inject faultfs.
func OpenRecords(dir, suffix string, fsys FS) (*Records, error) {
	if fsys == nil {
		fsys = OS()
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("atomicfile: records: %w", err)
	}
	return &Records{dir: dir, suffix: suffix, fsys: fsys}, nil
}

// Dir returns the records' directory.
func (r *Records) Dir() string { return r.dir }

// path maps a name to its file. Names of up to 128 characters from
// [-_0-9a-zA-Z] are used as they are; anything else is re-addressed
// through SHA-256 so arbitrary names cannot escape the directory.
func (r *Records) path(name string) string {
	safe := len(name) > 0 && len(name) <= 128
	for i := 0; safe && i < len(name); i++ {
		c := name[i]
		safe = c == '-' || c == '_' ||
			('0' <= c && c <= '9') || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
	}
	if !safe {
		sum := sha256.Sum256([]byte(name))
		name = hex.EncodeToString(sum[:])
	}
	return filepath.Join(r.dir, name+r.suffix)
}

// encode frames name+val with the checksum footer.
func encode(name string, val []byte) []byte {
	buf := make([]byte, 0, 4+len(name)+len(val)+sha256.Size)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(name)))
	buf = append(buf, name...)
	buf = append(buf, val...)
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...)
}

// decode verifies the footer and recovers (name, val). ok is false for
// any framing or checksum failure.
func decode(data []byte) (name string, val []byte, ok bool) {
	if len(data) < 4+sha256.Size {
		return "", nil, false
	}
	body, foot := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if sha256.Sum256(body) != [sha256.Size]byte(foot) {
		return "", nil, false
	}
	n := binary.BigEndian.Uint32(body)
	if int64(4)+int64(n) > int64(len(body)) {
		return "", nil, false
	}
	return string(body[4 : 4+n]), body[4+n:], true
}

// Put stores val under name, replacing any previous record.
func (r *Records) Put(name string, val []byte) error {
	return r.fsys.WriteFile(r.path(name), encode(name, val), 0o644)
}

// Get returns the value stored under name. ok is false when there is
// no good record; corrupt reports that the file was present but failed
// its check (or holds another name) and has been quarantined.
func (r *Records) Get(name string) (val []byte, ok, corrupt bool) {
	path := r.path(name)
	data, err := r.fsys.ReadFile(path)
	if err != nil {
		return nil, false, false
	}
	stored, val, ok := decode(data)
	if !ok || stored != name {
		r.quarantine(path)
		return nil, false, true
	}
	return val, true, false
}

// quarantine moves a corrupt file aside so it is kept for post-mortems
// but can never be served; if even the rename fails, the file is
// removed outright.
func (r *Records) quarantine(path string) {
	if err := r.fsys.Rename(path, path+".bad"); err != nil {
		r.fsys.Remove(path) //nolint:errcheck // already corrupt; best effort
	}
}

// Scan verifies every record and calls fn(name, val) for each good
// one, quarantining damaged files as it goes; fn returning false stops
// the scan. Files without the suffix (quarantined ones, a crashed
// writer's temp files) are skipped. corrupt is the number quarantined.
func (r *Records) Scan(fn func(name string, val []byte) bool) (corrupt int, err error) {
	ents, err := r.fsys.ReadDir(r.dir)
	if err != nil {
		return 0, fmt.Errorf("atomicfile: records scan: %w", err)
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), r.suffix) {
			continue
		}
		path := filepath.Join(r.dir, e.Name())
		data, err := r.fsys.ReadFile(path)
		if err != nil {
			continue
		}
		name, val, ok := decode(data)
		if !ok {
			r.quarantine(path)
			corrupt++
			continue
		}
		if !fn(name, val) {
			break
		}
	}
	return corrupt, nil
}

// Len counts the (unverified) records on disk, excluding quarantined
// files.
func (r *Records) Len() int {
	ents, err := r.fsys.ReadDir(r.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), r.suffix) {
			n++
		}
	}
	return n
}
