package cache

import (
	"fmt"

	"repro/internal/atomicfile"
	"repro/internal/obs"
)

// Disk is the persistent tier under the in-memory LRU: one
// content-addressed atomicfile record per entry, <key>.res, written
// atomically and durably, with a SHA-256 footer verified on every read.
// Corruption is never served — a damaged file is quarantined under a
// ".bad" suffix, counted, and treated as a miss, so the worst a flipped
// bit can cost is a recompute. Warm state therefore survives restarts
// (and SIGKILL: a crash mid-Put leaves either the old file or no file,
// never a torn one). The record embeds its key, which is what lets Scan
// pre-warm the LRU after a restart without an index file.
type Disk struct {
	recs *atomicfile.Records

	hits     obs.Counter
	misses   obs.Counter
	corrupt  obs.Counter
	writes   obs.Counter
	writeErr obs.Counter
}

// OpenDisk opens (creating if needed) a disk tier rooted at dir.
// fsys nil selects the real filesystem; tests inject faultfs.
func OpenDisk(dir string, fsys atomicfile.FS) (*Disk, error) {
	recs, err := atomicfile.OpenRecords(dir, ".res", fsys)
	if err != nil {
		return nil, fmt.Errorf("cache: disk tier: %w", err)
	}
	return &Disk{recs: recs}, nil
}

// Bind registers the tier's counters in reg under the cache/disk_*
// names. No-op when either side is nil.
func (d *Disk) Bind(reg *obs.Registry) {
	if d == nil || reg == nil {
		return
	}
	reg.BindCounter("cache/disk_hits", &d.hits)
	reg.BindCounter("cache/disk_misses", &d.misses)
	reg.BindCounter("cache/disk_corrupt", &d.corrupt)
	reg.BindCounter("cache/disk_writes", &d.writes)
	reg.BindCounter("cache/disk_write_errors", &d.writeErr)
}

// Get returns the stored value for key. A missing file is a plain
// miss; a present-but-corrupt file is quarantined, counted under
// cache/disk_corrupt, and reported as a miss — corrupt bytes are never
// returned.
func (d *Disk) Get(key string) ([]byte, bool) {
	if d == nil {
		return nil, false
	}
	val, ok, corrupt := d.recs.Get(key)
	if corrupt {
		d.corrupt.Inc()
	}
	if !ok {
		d.misses.Inc()
		return nil, false
	}
	d.hits.Inc()
	return val, true
}

// Put stores val under key, atomically. Errors (e.g. ENOSPC) are
// counted and returned; the tier degrades to a smaller working set
// rather than poisoning the directory.
func (d *Disk) Put(key string, val []byte) error {
	if d == nil {
		return nil
	}
	if err := d.recs.Put(key, val); err != nil {
		d.writeErr.Inc()
		return err
	}
	d.writes.Inc()
	return nil
}

// Scan verifies every entry in the tier and calls fn(key, val) for
// each good one, quarantining and counting corrupt files as it goes.
// fn returning false stops the scan. Used to pre-warm the in-memory LRU
// on restart.
func (d *Disk) Scan(fn func(key string, val []byte) bool) error {
	if d == nil {
		return nil
	}
	corrupt, err := d.recs.Scan(fn)
	d.corrupt.Add(int64(corrupt))
	if err != nil {
		return fmt.Errorf("cache: disk scan: %w", err)
	}
	return nil
}

// Len counts the (unverified) entries on disk, excluding quarantined
// files. Used by tests and the stats endpoint.
func (d *Disk) Len() int {
	if d == nil {
		return 0
	}
	return d.recs.Len()
}

// Dir returns the tier's root directory.
func (d *Disk) Dir() string {
	if d == nil {
		return ""
	}
	return d.recs.Dir()
}

// CorruptCount returns how many corrupt files have been quarantined.
func (d *Disk) CorruptCount() int64 { return d.corrupt.Load() }
