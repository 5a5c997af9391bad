package layout

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// Round-trip tests for every record type: encode, write, read, compare.

// record is the codec every record type has: one encoder, one decoder.
type record[T any] interface {
	*T
	AppendRecord(dst []byte) []byte
	Read(m Reader, addr uint64, verifyCRC bool, buf *[]byte) error
}

// roundTrip writes want's record at an offset into fresh memory and
// decodes it back into a fresh value through a fresh buffer.
func roundTrip[T any, P record[T]](t *testing.T, want P) *T {
	t.Helper()
	m := newMemBuf(64 << 10)
	if err := m.WriteAt(128, want.AppendRecord(nil)); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := new(T)
	var buf []byte
	if err := P(got).Read(m, 128, true, &buf); err != nil {
		t.Fatalf("read: %v", err)
	}
	return got
}

// decodeOnly writes rec's record at 0 and decodes it back, returning the
// decode's error.
func decodeOnly[T any, P record[T]](rec P, crc bool, mutate func([]byte)) error {
	m := &memBuf{data: rec.AppendRecord(make([]byte, 0, 4096))[:4096]}
	if mutate != nil {
		mutate(m.data)
	}
	var buf []byte
	return P(new(T)).Read(m, 0, crc, &buf)
}

func TestGlobalsRoundTrip(t *testing.T) {
	want := Globals{
		Version: 1, BootCount: 4, ProcListHead: 0xABCD, SwapTable: 0x1234,
		NextPID: 42, CrashRegionStart: 100, CrashRegionFrames: 200,
		HeapStart: 3, HeapFrames: 999,
	}
	got := roundTrip(t, &want)
	if *got != want {
		t.Fatalf("got %+v, want %+v", *got, want)
	}
}

func TestProcRoundTrip(t *testing.T) {
	want := Proc{
		PID: 7, State: ProcSleeping, Name: "mysqld", Program: "mysqld",
		CrashProc: "mysql-crashproc", PageDir: 0x4000, MemRegions: 0x5000,
		Files: 0x6000, KStack: 0x7000, Terminal: 0x8000, Signals: 0x9000,
		Shm: 0xA000, Pipes: 0xB000, Sockets: 0xC000, Next: 0xD000,
	}
	got := roundTrip(t, &want)
	if *got != want {
		t.Fatalf("got %+v, want %+v", *got, want)
	}
}

func TestProcRoundTripProperty(t *testing.T) {
	f := func(pid uint32, name, prog string, pd, mr, next uint64) bool {
		if len(name) > 64 {
			name = name[:64]
		}
		if len(prog) > 64 {
			prog = prog[:64]
		}
		want := Proc{PID: pid, Name: name, Program: prog, PageDir: pd, MemRegions: mr, Next: next}
		got, err := ReadProc(&memBuf{data: want.AppendRecord(nil)}, 0, true)
		return err == nil && *got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMemRegionRoundTrip(t *testing.T) {
	want := MemRegion{
		Start: 0x100000, End: 0x200000, Prot: ProtRead | ProtWrite,
		Kind: RegionFileMap, File: 0xF00, FileOffset: 8192, Next: 0xE00,
	}
	got := roundTrip(t, &want)
	if *got != want {
		t.Fatalf("got %+v, want %+v", *got, want)
	}
}

func TestMemRegionRejectsInvertedBounds(t *testing.T) {
	bad := MemRegion{Start: 0x2000, End: 0x1000}
	if err := decodeOnly(&bad, true, nil); !IsCorruption(err) {
		t.Fatalf("want corruption for inverted bounds, got %v", err)
	}
}

func TestFileRecRoundTrip(t *testing.T) {
	want := FileRec{
		FD: 5, Path: "/var/lib/mysql/recovery.dat", Flags: FlagRead | FlagWrite,
		Offset: 12345, Mapped: true, CachePages: 0xCC00, Next: 0xDD00,
	}
	got := roundTrip(t, &want)
	if *got != want {
		t.Fatalf("got %+v, want %+v", *got, want)
	}
}

func TestSwapTableRoundTrip(t *testing.T) {
	want := SwapTable{}
	want.Areas[0] = SwapArea{Device: "/dev/swap0", Active: true, Slots: 16384}
	want.Areas[2] = SwapArea{Device: "/dev/swap1", Active: false, Slots: 8192}
	got := roundTrip(t, &want)
	if *got != want {
		t.Fatalf("got %+v, want %+v", *got, want)
	}
}

func TestTerminalRoundTrip(t *testing.T) {
	want := Terminal{Index: 2, Rows: 25, Cols: 80, CursorRow: 10, CursorCol: 40, Settings: 0x5, Screen: 0x7F000}
	got := roundTrip(t, &want)
	if *got != want {
		t.Fatalf("got %+v, want %+v", *got, want)
	}
}

func TestTerminalRejectsZeroGeometry(t *testing.T) {
	bad := Terminal{Index: 1, Rows: 0, Cols: 80}
	if err := decodeOnly(&bad, true, nil); !IsCorruption(err) {
		t.Fatalf("want corruption for zero rows, got %v", err)
	}
}

// TestTerminalRejectsScreenPastItsFrame: every kernel keeps a screen in one
// frame, so a geometry whose screen outgrows it is corrupt, and one that
// fills it exactly is not.
func TestTerminalRejectsScreenPastItsFrame(t *testing.T) {
	bad := Terminal{Index: 1, Rows: 100, Cols: 80}
	if err := decodeOnly(&bad, true, nil); !IsCorruption(err) {
		t.Fatalf("want corruption for a 100x80 screen, got %v", err)
	}
	full := Terminal{Index: 1, Rows: 64, Cols: 64}
	if got := roundTrip(t, &full); *got != full {
		t.Fatalf("got %+v, want %+v", *got, full)
	}
}

func TestSignalsRoundTrip(t *testing.T) {
	want := Signals{Blocked: 0xF0F0}
	want.Handlers[2] = 77
	want.Handlers[31] = 99
	got := roundTrip(t, &want)
	if *got != want {
		t.Fatalf("got %+v, want %+v", *got, want)
	}
}

func TestShmRoundTrip(t *testing.T) {
	want := Shm{Key: 0xA9AC4E, Size: 512 << 10, AttachedAt: 0x500000, Frames: []uint64{9, 10, 11}, Next: 0x123}
	got := roundTrip(t, &want)
	if !reflect.DeepEqual(*got, want) {
		t.Fatalf("got %+v, want %+v", *got, want)
	}
}

func TestShmRejectsHugeFrameCount(t *testing.T) {
	want := Shm{Key: 1, Size: 4096, Frames: []uint64{1}}
	// Corrupt the frame count field (offset: key 8 + size 8 + attach 8).
	err := decodeOnly(&want, false, func(b []byte) {
		b[HeaderSize+24] = 0xFF
		b[HeaderSize+25] = 0xFF
	})
	if !IsCorruption(err) {
		t.Fatalf("want corruption for huge frame count, got %v", err)
	}
}

func TestPipeRoundTrip(t *testing.T) {
	want := Pipe{ID: 3, Buf: 0x9000, ReadPos: 10, WritePos: 20, Locked: true, PeerPID: 8, Next: 0x44}
	got := roundTrip(t, &want)
	if *got != want {
		t.Fatalf("got %+v, want %+v", *got, want)
	}
}

func TestSocketRoundTrip(t *testing.T) {
	want := Socket{ID: 1, Proto: ProtoTCP, LocalPort: 3306, RemotePort: 54321, Seq: 1000, Window: 65535, Next: 0x99}
	got := roundTrip(t, &want)
	if *got != want {
		t.Fatalf("got %+v, want %+v", *got, want)
	}
}

func TestCachePageRoundTrip(t *testing.T) {
	want := CachePage{FileOff: 8192, Frame: 321, Dirty: true, Bytes: 4096, Next: 0x777}
	got := roundTrip(t, &want)
	if *got != want {
		t.Fatalf("got %+v, want %+v", *got, want)
	}
}

// TestDecodersNeverPanicOnGarbage feeds random bytes to every decoder; they
// must return errors, never panic — decoders routinely run over
// fault-injected memory.
func TestDecodersNeverPanicOnGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := newMemBuf(8 << 10)
	for trial := 0; trial < 2000; trial++ {
		rng.Read(m.data)
		// Sometimes plant a valid header so decode proceeds to payload.
		if trial%2 == 0 {
			img := sealed(Type(1+rng.Intn(int(typeMax)-1)), m.data[:rng.Intn(256)])
			copy(m.data, img)
		}
		var buf []byte
		crc := func() bool { return rng.Intn(2) == 0 }
		_ = new(Globals).Read(m, 0, crc(), &buf)
		_ = new(Proc).Read(m, 0, crc(), &buf)
		_ = new(MemRegion).Read(m, 0, crc(), &buf)
		_ = new(FileRec).Read(m, 0, crc(), &buf)
		_ = new(SwapTable).Read(m, 0, crc(), &buf)
		_ = new(Terminal).Read(m, 0, crc(), &buf)
		_ = new(Signals).Read(m, 0, crc(), &buf)
		_ = new(Shm).Read(m, 0, crc(), &buf)
		_ = new(Pipe).Read(m, 0, crc(), &buf)
		_ = new(Socket).Read(m, 0, crc(), &buf)
		_ = new(CachePage).Read(m, 0, crc(), &buf)
	}
}
