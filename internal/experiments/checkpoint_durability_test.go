package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/vfs"
)

// writeV2Store builds a store file in the retired v2 format by hand:
// plain JSONL records (no CRC framing) after a version-2 header.
func writeV2Store(t *testing.T, fsys vfs.FS, dir, fp string, recs []checkpointRecord) {
	t.Helper()
	var buf bytes.Buffer
	hdr, err := json.Marshal(checkpointHeader{V: 2, FP: fp})
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(hdr)
	buf.WriteByte('\n')
	for _, rec := range recs {
		rec.V = 2
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFileAtomic(fsys, filepath.Join(dir, checkpointFile), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointV2ReadCompat: a store in the retired v2 format is
// refused with the format-version error, and the refusal leaves the
// store file byte-for-byte as it was (no upgrade, no quarantine).
func TestCheckpointV2ReadCompat(t *testing.T) {
	dir := t.TempDir()
	writeV2Store(t, vfs.OS{}, dir, testFP(), []checkpointRecord{
		{Key: "a/b", Result: sim.Result{PrefetchesIssued: 11}, Samples: []byte("{\"s\":1}\n")},
		{Key: "fig/x", Blob: []byte(`{"table":1}`), IsBlob: true},
	})
	path := filepath.Join(dir, checkpointFile)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := OpenCheckpoint(dir, testFP())
	if err == nil {
		ck.Close()
		t.Fatal("v2 store opened; want a format-version refusal")
	}
	want := fmt.Sprintf("checkpoint format version 2, this build writes %d", checkpointVersion)
	if !strings.Contains(err.Error(), want) {
		t.Errorf("v2 store refused with %q, want it to say %q", err, want)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Errorf("refused v2 store was modified:\n--- before ---\n%s\n--- after ---\n%s", before, after)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineFile)); !os.IsNotExist(err) {
		t.Errorf("refusing a v2 store wrote a quarantine file (stat err %v)", err)
	}
}

// TestCheckpointMidFileCorruption flips bytes inside an early record
// and verifies the corruption is detected (CRC), the record is
// quarantined rather than served, and every healthy record — before
// and after the corrupt one — survives.
func TestCheckpointMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	ck, err := OpenCheckpoint(dir, testFP())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"a/1", "a/2", "a/3"} {
		if err := ck.Put(key, sim.Result{PrefetchesIssued: 5}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, checkpointFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the middle record's payload (line 2 after the header)
	// without touching its newline.
	lines := bytes.SplitAfter(data, []byte("\n"))
	mid := lines[2]
	copy(mid[20:], []byte("XXXX"))
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}

	ck2, err := OpenCheckpoint(dir, testFP())
	if err != nil {
		t.Fatalf("mid-file corruption rejected the whole store: %v", err)
	}
	if ck2.Quarantined() != 1 {
		t.Errorf("quarantined %d records, want 1", ck2.Quarantined())
	}
	if ck2.Has("a/2") {
		t.Error("corrupt record a/2 served anyway")
	}
	for _, key := range []string{"a/1", "a/3"} {
		if !ck2.Has(key) {
			t.Errorf("healthy record %s lost to a neighbour's corruption", key)
		}
	}
	if err := ck2.Close(); err != nil {
		t.Fatal(err)
	}

	// The quarantine file holds the corrupt line; the compacted store
	// reopens clean.
	q, err := os.ReadFile(filepath.Join(dir, quarantineFile))
	if err != nil || !bytes.Contains(q, []byte("XXXX")) {
		t.Errorf("quarantine file missing the corrupt line (err %v)", err)
	}
	ck3, err := OpenCheckpoint(dir, testFP())
	if err != nil {
		t.Fatal(err)
	}
	defer ck3.Close()
	if ck3.Quarantined() != 0 {
		t.Errorf("compacted store still quarantines %d records", ck3.Quarantined())
	}
	if ck3.Len() != 2 {
		t.Errorf("compacted store holds %d records, want 2", ck3.Len())
	}
}

// TestCheckpointCrashBetweenWriteAndSync is the kill -9 window the
// ISSUE names: a record written but not yet fsynced when the process
// dies must not corrupt the store — on reopen the store is openable,
// fully-synced records are intact, and the un-synced tail is
// truncated/quarantined, never half-served.
func TestCheckpointCrashBetweenWriteAndSync(t *testing.T) {
	for seed := int64(0); seed < 32; seed++ {
		mem := vfs.NewMem(seed)
		// Sync failures leave the acknowledged prefix durable but the
		// failing record merely written: exactly the write/fsync window.
		faulty := vfs.NewFaulty(mem, vfs.Plan{})
		ck, err := OpenCheckpointFS(faulty, "store", testFP())
		if err != nil {
			t.Fatal(err)
		}
		if err := ck.Put("good/1", sim.Result{PrefetchesIssued: 1}, nil); err != nil {
			t.Fatal(err)
		}
		faulty.SetPlan(vfs.Plan{Seed: seed, PSync: 1})
		if err := ck.Put("lost/2", sim.Result{PrefetchesIssued: 2}, nil); err == nil {
			t.Fatal("sync fault not delivered")
		}
		// kill -9: the process is gone, the disk keeps only what was
		// synced plus a random prefix of the unsynced record.
		mem.Crash()

		faulty.Heal()
		ck2, err := OpenCheckpointFS(faulty, "store", testFP())
		if err != nil {
			t.Fatalf("seed %d: store unopenable after crash: %v", seed, err)
		}
		if !ck2.Has("good/1") {
			t.Fatalf("seed %d: synced record lost", seed)
		}
		// The un-synced record either survived whole (its bytes all
		// reached disk before the crash) or was dropped; a torn prefix
		// must never be served as a record.
		if ck2.Has("lost/2") {
			res, _, _ := ck2.Get("lost/2")
			if res.PrefetchesIssued != 2 {
				t.Fatalf("seed %d: torn record served with wrong content", seed)
			}
		}
		// And the store must accept appends again.
		if err := ck2.Put("new/3", sim.Result{}, nil); err != nil {
			t.Fatalf("seed %d: append after crash recovery: %v", seed, err)
		}
		if err := ck2.Close(); err != nil {
			t.Fatalf("seed %d: close: %v", seed, err)
		}
	}
}

// TestCheckpointPutReportsAndLatchesErrors: a failed Put surfaces the
// error to the caller (degraded mode), latches it for Close, and
// ClearErr forgives it after recovery.
func TestCheckpointPutReportsAndLatchesErrors(t *testing.T) {
	faulty := vfs.NewFaulty(vfs.NewMem(1), vfs.Plan{})
	ck, err := OpenCheckpointFS(faulty, "store", testFP())
	if err != nil {
		t.Fatal(err)
	}
	faulty.SetPlan(vfs.Plan{Seed: 9, PWrite: 1})
	if err := ck.Put("k", sim.Result{}, nil); !vfs.IsInjected(err) {
		t.Fatalf("Put returned %v, want the injected fault", err)
	}
	if ck.Has("k") {
		t.Error("failed Put left the record visible in memory")
	}
	if ck.Err() == nil {
		t.Error("write error not latched")
	}
	faulty.Heal()
	if err := ck.Put("k", sim.Result{}, nil); err != nil {
		t.Fatalf("Put after heal: %v", err)
	}
	ck.ClearErr()
	if err := ck.Close(); err != nil {
		t.Fatalf("Close after ClearErr: %v", err)
	}
}
