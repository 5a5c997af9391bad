package apps

import (
	"bytes"
	"runtime"
	"strconv"
	"testing"

	"otherworld/internal/core"
	"otherworld/internal/layout"
	"otherworld/internal/trace"
)

// walMachine returns a machine with nothing on its platter.
func walMachine(tb testing.TB) *core.Machine {
	tb.Helper()
	opts := core.DefaultOptions()
	opts.HW.MemoryBytes = 192 << 20
	opts.Seed = 1
	m, err := core.NewMachine(opts)
	if err != nil {
		tb.Fatalf("NewMachine: %v", err)
	}
	return m
}

// writeWALLog puts a log of txns committed transactions followed by a torn
// 100-byte record on m's platter and returns the log's length.
func writeWALLog(tb testing.TB, m *core.Machine, txns int) int64 {
	tb.Helper()
	var w WALKV
	var off int64
	appendRec := func(rec []byte) {
		if _, err := m.FS.WriteAt(WALPath, off, rec, true); err != nil {
			tb.Fatal(err)
		}
		off += int64(len(rec))
	}
	for txn := uint64(1); txn <= uint64(txns); txn++ {
		for seq := uint64(1); seq <= WALRecsPerTxn; seq++ {
			n := copy(w.page[walRecPayloadOff:], "p"+strconv.FormatUint(txn, 10))
			appendRec(w.record(WALKindRecord, txn, seq, n))
		}
		appendRec(w.record(WALKindCommit, txn, 0, 0))
	}
	appendRec(w.record(WALKindRecord, uint64(txns)+1, 1, 0)[:100])
	return off
}

// TestWALRecordPageReuse: a record built in the page the one before it
// used carries none of that record's bytes, so the platter holds what a
// fresh page would.
func TestWALRecordPageReuse(t *testing.T) {
	var w WALKV
	n := copy(w.page[walRecPayloadOff:], bytes.Repeat([]byte{'x'}, WALPayloadCap))
	w.record(WALKindRecord, 7, 1, n)
	rec := w.record(WALKindCommit, 7, 0, 0)
	if !bytes.Equal(rec[walRecPayloadOff:walCRCOff], make([]byte, walCRCOff-walRecPayloadOff)) {
		t.Fatal("the commit record kept the data record's payload")
	}
	if scan := ParseWAL(rec); !scan.Commits[7] || scan.InvalidSlots != 0 {
		t.Fatalf("the commit record does not scan as one: %+v", scan)
	}
}

// allocated returns the bytes the host allocates while fn runs.
func allocated(fn func()) int64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc)
}

// TestWALRestartStreamsLog: a restart reads the log once, as a stream,
// without copying it. A restart over a 256-transaction log allocates less
// than 256 KiB more than over a 16-transaction one, a margin for the scan's
// per-transaction maps; a restart that buffered the log would allocate a
// multiple of the extra 3.75 MiB. The reads themselves allocate nothing:
// streaming the log again through the same reads allocates 0 bytes. The
// restart recovers every committed transaction and resumes at the slot
// after the torn tail, and it makes the same reads a buffering restart
// makes: one 4 KiB ReadFile per 4 KiB of log, rounded up, plus the read
// that returns 0.
func TestWALRestartStreamsLog(t *testing.T) {
	// An empty log costs a restart its other system calls plus the read
	// that returns 0.
	empty := walMachine(t)
	if err := empty.FS.WriteFile(WALPath, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := empty.Start("walkv", ProgWAL); err != nil {
		t.Fatal(err)
	}
	others := empty.K.Perf.Syscalls
	restart := func(txns int) int64 {
		m := walMachine(t)
		size := writeWALLog(t, m, txns)
		alloc := allocated(func() {
			if _, err := m.Start("walkv", ProgWAL); err != nil {
				t.Fatal(err)
			}
		})
		if reads, want := m.K.Perf.Syscalls-others, uint64(size+WALRecordSize-1)/WALRecordSize; reads != want {
			t.Fatalf("%d transactions: restart made %d reads of a %d-byte log besides the empty log's, want %d",
				txns, reads, size, want)
		}
		env := envOf(t, m, ProgWAL)
		for _, c := range []struct {
			name string
			off  uint64
			want uint64
		}{
			{"applied", walAppliedOff, uint64(txns)},
			{"next txn", walNextTxnOff, uint64(txns) + 1},
			{"append offset", walEndOff, uint64(size+WALRecordSize-1) / WALRecordSize * WALRecordSize},
		} {
			if got, err := env.ReadU64(walHdrVA + c.off); err != nil || got != c.want {
				t.Fatalf("%d transactions: %s = %d %v, want %d", txns, c.name, got, err, c.want)
			}
		}
		fd, err := env.Open(WALPath, layout.FlagRead)
		if err != nil {
			t.Fatal(err)
		}
		// Wrap the flight recorder once first: a counter snapshot's first
		// write to a ring sector gives it simulated storage, which is not
		// what the reads allocate.
		tr := m.Tracer()
		for i := 0; i < tr.Capacity(); i++ {
			tr.Record(trace.Event{Kind: trace.KindSched})
		}
		var slot [WALRecordSize]byte
		if calls := allocated(func() {
			for {
				n, err := env.ReadFile(fd, slot[:])
				if err != nil {
					t.Fatal(err)
				}
				if n == 0 {
					return
				}
			}
		}); calls != 0 {
			t.Fatalf("%d transactions: streaming the log through ReadFile allocated %d bytes, want 0", txns, calls)
		}
		return alloc
	}
	small, large := restart(16), restart(256)
	t.Logf("a restart allocated %d bytes over 16 transactions and %d over 256", small, large)
	if large-small >= 256<<10 {
		t.Fatalf("a restart over 256 transactions allocated %d bytes and over 16 %d: %d more, want < 256 KiB",
			large, small, large-small)
	}
}

// BenchmarkWALRestart times a restart of the store over a 256-transaction
// log: process creation, then Boot's recovery scan of 4 MiB of log.
func BenchmarkWALRestart(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := walMachine(b)
		writeWALLog(b, m, 256)
		b.StartTimer()
		if _, err := m.Start("walkv", ProgWAL); err != nil {
			b.Fatal(err)
		}
	}
}
