package kernel

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"otherworld/internal/layout"
)

func TestTerminalEchoAndScreen(t *testing.T) {
	k := bootTestKernel(t, nil)
	env := envFor(t, k)
	if err := env.TermOpen(1); err != nil {
		t.Fatal(err)
	}
	if err := env.TermWrite([]byte("hello\nworld")); err != nil {
		t.Fatal(err)
	}
	rows, err := k.ScreenContents(env.P)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(rows[0]), "hello") {
		t.Fatalf("row 0 = %q", rows[0][:10])
	}
	if !strings.HasPrefix(string(rows[1]), "world") {
		t.Fatalf("row 1 = %q", rows[1][:10])
	}
	// Cursor persisted in the record.
	var rec layout.Terminal
	if _, err := k.readTerminalRec(env.P, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.CursorRow != 1 || rec.CursorCol != 5 {
		t.Fatalf("cursor = %d,%d", rec.CursorRow, rec.CursorCol)
	}
}

func TestTerminalScrolls(t *testing.T) {
	k := bootTestKernel(t, nil)
	env := envFor(t, k)
	_ = env.TermOpen(1)
	for i := 0; i < defaultTTYRows+3; i++ {
		if err := env.TermWrite([]byte{byte('a' + i%26), '\n'}); err != nil {
			t.Fatal(err)
		}
	}
	rows, _ := k.ScreenContents(env.P)
	// After scrolling, the first visible line is no longer 'a'.
	if rows[0][0] == 'a' {
		t.Fatal("screen did not scroll")
	}
}

func TestTerminalLineWrap(t *testing.T) {
	k := bootTestKernel(t, nil)
	env := envFor(t, k)
	_ = env.TermOpen(1)
	long := bytes.Repeat([]byte{'x'}, defaultTTYCols+5)
	if err := env.TermWrite(long); err != nil {
		t.Fatal(err)
	}
	rows, _ := k.ScreenContents(env.P)
	if rows[1][4] != 'x' || rows[1][5] == 'x' {
		t.Fatalf("wrap wrong: %q", rows[1][:8])
	}
}

func TestTermReadFromHub(t *testing.T) {
	hub := NewConsoleHub()
	k := bootTestKernel(t, func(p *Params) { p.Consoles = hub })
	env := envFor(t, k)
	_ = env.TermOpen(7)
	keys := []byte("hi")
	i := 0
	hub.AttachInput(7, func() (byte, bool) {
		if i >= len(keys) {
			return 0, false
		}
		b := keys[i]
		i++
		return b, true
	})
	b, ok, err := env.TermRead()
	if err != nil || !ok || b != 'h' {
		t.Fatalf("read: %c %v %v", b, ok, err)
	}
	b, ok, _ = env.TermRead()
	if !ok || b != 'i' {
		t.Fatalf("read 2: %c %v", b, ok)
	}
	if _, ok, _ := env.TermRead(); ok {
		t.Fatal("exhausted source should report no key")
	}
}

func TestDoubleTerminalOpenFails(t *testing.T) {
	k := bootTestKernel(t, nil)
	env := envFor(t, k)
	if err := env.TermOpen(1); err != nil {
		t.Fatal(err)
	}
	if err := env.TermOpen(2); err == nil {
		t.Fatal("second terminal should fail")
	}
}

func TestShmReadWriteThroughVM(t *testing.T) {
	k := bootTestKernel(t, nil)
	env := envFor(t, k)
	if err := env.ShmGet(0xA11C, 3*4096, 0x500000); err != nil {
		t.Fatal(err)
	}
	data := []byte("shared segment contents")
	if err := env.Write(0x500000+100, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	if err := env.Read(0x500000+100, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatalf("got %q", buf)
	}
	// The descriptor lists exactly the backing frames.
	var rec layout.Shm
	var recBuf []byte
	if err := rec.Read(k.M.Mem, env.P.D.Shm, true, &recBuf); err != nil {
		t.Fatal(err)
	}
	if len(rec.Frames) != 3 || rec.AttachedAt != 0x500000 {
		t.Fatalf("shm record: %+v", rec)
	}
}

func TestPipeWriteRead(t *testing.T) {
	k := bootTestKernel(t, nil)
	env := envFor(t, k)
	if err := env.PipeOpen(1, 0); err != nil {
		t.Fatal(err)
	}
	n, err := env.PipeWrite(1, []byte("through the pipe"))
	if err != nil || n != 16 {
		t.Fatalf("write: %d %v", n, err)
	}
	buf := make([]byte, 16)
	n, err = env.PipeRead(1, buf)
	if err != nil || n != 16 || string(buf) != "through the pipe" {
		t.Fatalf("read: %d %q %v", n, buf, err)
	}
	if _, err := env.PipeRead(1, buf); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("empty pipe: %v", err)
	}
	// The lock flag is clear between operations (consistent state).
	var rec layout.Pipe
	if _, err := k.lookupPipe(env.P, 1, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Locked {
		t.Fatal("pipe left locked")
	}
}

func TestPipeFillsUp(t *testing.T) {
	k := bootTestKernel(t, nil)
	env := envFor(t, k)
	_ = env.PipeOpen(1, 0)
	big := make([]byte, pipeBufCapacity+100)
	n, err := env.PipeWrite(1, big)
	if err != nil {
		t.Fatal(err)
	}
	if n != pipeBufCapacity-1 { // circular buffer holds cap-1
		t.Fatalf("wrote %d, want %d", n, pipeBufCapacity-1)
	}
}

func TestSocketsThroughWire(t *testing.T) {
	net := NewNetwork()
	k := bootTestKernel(t, func(p *Params) { p.Net = net })
	env := envFor(t, k)
	if err := env.SockOpen(1, layout.ProtoTCP, 8080); err != nil {
		t.Fatal(err)
	}
	if _, err := env.SockRecv(1); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("empty recv: %v", err)
	}
	net.Deliver(8080, []byte("request"))
	got, err := env.SockRecv(1)
	if err != nil || string(got) != "request" {
		t.Fatalf("recv: %q %v", got, err)
	}
	var replies []string
	net.OnRemote(8080, func(p []byte) { replies = append(replies, string(p)) })
	if err := env.SockSend(1, []byte("response")); err != nil {
		t.Fatal(err)
	}
	if len(replies) != 1 || replies[0] != "response" {
		t.Fatalf("replies = %v", replies)
	}
}

func TestNetworkFlushInbound(t *testing.T) {
	net := NewNetwork()
	net.Deliver(80, []byte("a"))
	net.Deliver(80, []byte("b"))
	net.FlushInbound()
	if net.Pending(80) != 0 || net.Dropped != 2 {
		t.Fatalf("flush: pending=%d dropped=%d", net.Pending(80), net.Dropped)
	}
}

func TestSigAction(t *testing.T) {
	k := bootTestKernel(t, nil)
	env := envFor(t, k)
	if err := env.SigAction(2, 0xCAFE); err != nil {
		t.Fatal(err)
	}
	if err := env.SigAction(40, 1); err == nil {
		t.Fatal("out-of-range signal should fail")
	}
	var tbl layout.Signals
	var buf []byte
	if err := tbl.Read(k.M.Mem, env.P.D.Signals, true, &buf); err != nil {
		t.Fatal(err)
	}
	if tbl.Handlers[2] != 0xCAFE {
		t.Fatalf("handler = %#x", tbl.Handlers[2])
	}
	// Update in place.
	if err := env.SigAction(2, 0xBEEF); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Read(k.M.Mem, env.P.D.Signals, true, &buf); err != nil || tbl.Handlers[2] != 0xBEEF {
		t.Fatalf("handler after update = %#x", tbl.Handlers[2])
	}
}
