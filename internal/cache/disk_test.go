package cache

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/atomicfile"
	"repro/internal/atomicfile/faultfs"
	"repro/internal/obs"
)

func TestDiskRoundTrip(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte(`{"x":1}`), 100)
	if err := d.Put("k1", val); err != nil {
		t.Fatal(err)
	}
	got, ok := d.Get("k1")
	if !ok || !bytes.Equal(got, val) {
		t.Fatalf("Get = %v, %v", ok, got)
	}
	if _, ok := d.Get("absent"); ok {
		t.Fatal("Get(absent) hit")
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d", d.Len())
	}
}

// A .res file in the layout every earlier release wrote —
// [4B key length][key][value][SHA-256] — is served as it is, so an
// existing cache directory stays warm. The bytes are fixed here, not
// produced by the code under test: the test fails if the layout drifts.
func TestDiskServesGoldenLayout(t *testing.T) {
	const golden = "00000008" + "3031323361626364" + "7b22546f7073223a5b312c325d7d" +
		"4354b4cfafd1fc9bfdb0f76066f4ba0c2ab716d43182de2cbe61c353d77654a2"
	raw, err := hex.DecodeString(golden)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "0123abcd.res"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := d.Get("0123abcd")
	if !ok || string(got) != `{"Tops":[1,2]}` {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	// Writing the same entry reproduces the same bytes.
	if err := d.Put("0123abcd", got); err != nil {
		t.Fatal(err)
	}
	if again, _ := os.ReadFile(filepath.Join(dir, "0123abcd.res")); !bytes.Equal(again, raw) {
		t.Fatalf("Put wrote %x, want %x", again, raw)
	}
}

// A flipped bit anywhere in the file must be detected, quarantined to
// a .bad file, counted, and treated as a miss — never served.
func TestDiskCorruptionQuarantined(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put("deadbeef", []byte("precious result bytes")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "deadbeef.res")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := d.Get("deadbeef"); ok {
		t.Fatal("corrupt entry was served")
	}
	if d.CorruptCount() != 1 {
		t.Fatalf("CorruptCount = %d, want 1", d.CorruptCount())
	}
	if _, err := os.Stat(path + ".bad"); err != nil {
		t.Fatalf("no quarantine file: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt file still in place")
	}
	if d.Len() != 0 {
		t.Fatalf("Len after quarantine = %d", d.Len())
	}
}

// Read-side bit flips injected by faultfs are caught the same way.
func TestDiskBitFlipInjected(t *testing.T) {
	fsys := faultfs.Wrap(atomicfile.OS(), faultfs.Config{Seed: 11, BitFlipProb: 1})
	d, err := OpenDisk(t.TempDir(), fsys)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put("k", bytes.Repeat([]byte{0xAA}, 256)); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get("k"); ok {
		t.Fatal("bit-flipped entry was served")
	}
	if d.CorruptCount() == 0 {
		t.Fatal("corruption not counted")
	}
}

func TestDiskENOSPCDegradesNotPoisons(t *testing.T) {
	fsys := faultfs.Wrap(atomicfile.OS(), faultfs.Config{WriteBudget: 400})
	d, err := OpenDisk(t.TempDir(), fsys)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put("small", make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if err := d.Put("big", make([]byte, 1024)); err == nil {
		t.Fatal("Put over budget succeeded")
	}
	// The failed write must not have damaged the stored entry or left
	// a torn file behind.
	if _, ok := d.Get("small"); !ok {
		t.Fatal("earlier entry lost")
	}
	if _, ok := d.Get("big"); ok {
		t.Fatal("partial entry served")
	}
	if d.CorruptCount() != 0 {
		t.Fatal("atomic write failure produced a corrupt file")
	}
}

func TestCacheDiskFallthroughAndPrewarm(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := New(8)
	c.AttachDisk(d)

	computes := 0
	compute := func() (any, error) { computes++; return []byte("v1"), nil }

	// Miss everywhere: computed, cached in memory AND written through.
	if _, out, err := c.GetOrCompute("k1", compute); err != nil || out != Miss {
		t.Fatalf("first: %v %v", out, err)
	}
	if d.Len() != 1 {
		t.Fatalf("write-through missing: disk Len = %d", d.Len())
	}

	// A fresh cache over the same directory: memory is cold, disk is
	// warm — the engine must not run.
	c2 := New(8)
	c2.AttachDisk(d)
	v, out, err := c2.GetOrCompute("k1", compute)
	if err != nil || out != DiskHit || string(v.([]byte)) != "v1" {
		t.Fatalf("disk fallthrough: %v %v %v", v, out, err)
	}
	// Promoted: next lookup is a memory hit.
	if _, out, _ := c2.GetOrCompute("k1", compute); out != Hit {
		t.Fatalf("promotion: outcome %v", out)
	}
	if computes != 1 {
		t.Fatalf("compute ran %d times, want 1", computes)
	}

	// Prewarm loads disk state into a cold LRU up front.
	c3 := New(8)
	c3.AttachDisk(d)
	if n := c3.Prewarm(0); n != 1 {
		t.Fatalf("Prewarm = %d, want 1", n)
	}
	if _, out, _ := c3.GetOrCompute("k1", compute); out != Hit {
		t.Fatalf("prewarmed lookup: outcome %v", out)
	}

	// Plain Get falls through to disk too.
	c4 := New(8)
	c4.AttachDisk(d)
	if _, ok := c4.Get("k1"); !ok {
		t.Fatal("Get did not consult the disk tier")
	}
}

func TestByteBoundEviction(t *testing.T) {
	// 10 entries allowed by count, but only ~3 by bytes.
	c := NewSized(10, 3*100)
	for i := 0; i < 6; i++ {
		c.Add(fmt.Sprintf("k%d", i), make([]byte, 100))
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (byte bound)", c.Len())
	}
	if c.Bytes() != 300 {
		t.Fatalf("Bytes = %d, want 300", c.Bytes())
	}
	// Newest survive, oldest evicted.
	if _, ok := c.Get("k5"); !ok {
		t.Fatal("newest entry evicted")
	}
	if _, ok := c.Get("k0"); ok {
		t.Fatal("oldest entry survived the byte bound")
	}
	_, _, ev := c.Stats()
	if ev != 3 {
		t.Fatalf("evictions = %d, want 3", ev)
	}
}

func TestOversizeValueNeverCached(t *testing.T) {
	c := NewSized(10, 100)
	got, out, err := c.GetOrCompute("big", func() (any, error) {
		return make([]byte, 1000), nil
	})
	if err != nil || out != Miss || len(got.([]byte)) != 1000 {
		t.Fatalf("oversize serve: %v %v", out, err)
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("oversize value cached: len %d bytes %d", c.Len(), c.Bytes())
	}
	// Normal entries still cache fine afterwards.
	c.Add("small", make([]byte, 10))
	if c.Len() != 1 {
		t.Fatal("small entry not cached")
	}
}

// Replacing an entry adjusts the byte account instead of leaking it.
func TestReplaceAdjustsBytes(t *testing.T) {
	c := NewSized(4, 1000)
	c.Add("k", make([]byte, 100))
	c.Add("k", make([]byte, 300))
	if c.Bytes() != 300 {
		t.Fatalf("Bytes = %d, want 300", c.Bytes())
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

// Keys that are not filesystem-safe are re-addressed, not written
// verbatim.
func TestDiskUnsafeKey(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	key := "../escape/" + strings.Repeat("x", 200)
	if err := d.Put(key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get(key); !ok {
		t.Fatal("unsafe key roundtrip failed")
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 || strings.Contains(ents[0].Name(), "..") {
		t.Fatalf("unexpected dir contents: %v", ents)
	}
}

func TestDiskBindAndDir(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Dir() != dir {
		t.Errorf("Dir() = %q, want %q", d.Dir(), dir)
	}
	reg := obs.NewRegistry()
	d.Bind(reg)
	if err := d.Put("aa", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get("aa"); !ok {
		t.Fatal("get after put missed")
	}
	d.Get("bb")
	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"cache/disk_hits": 1, "cache/disk_misses": 1, "cache/disk_writes": 1,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	// Nil receivers and nil registries must be no-ops.
	var nilDisk *Disk
	nilDisk.Bind(reg)
	d.Bind(nil)
}

func TestOutcomeStrings(t *testing.T) {
	for o, want := range map[Outcome]string{
		Hit: "hit", Miss: "miss", Shared: "shared", DiskHit: "disk", Outcome(99): "unknown",
	} {
		if got := o.String(); got != want {
			t.Errorf("Outcome(%d).String() = %q, want %q", o, got, want)
		}
	}
}
