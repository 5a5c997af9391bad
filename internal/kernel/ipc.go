package kernel

import (
	"errors"
	"fmt"

	"otherworld/internal/layout"
	"otherworld/internal/phys"
)

// ErrWouldBlock reports an IPC read with nothing available.
var ErrWouldBlock = errors.New("kernel: would block")

// --- Shared memory -----------------------------------------------------

// ShmGet allocates a shared-memory segment of size bytes, maps it into the
// process at va, and links its descriptor. Segment pages live in dedicated
// frames listed in the descriptor so resurrection can copy them.
func (k *Kernel) ShmGet(p *Process, key uint64, size uint64, va uint64) error {
	if size == 0 {
		return fmt.Errorf("kernel: zero-size shm segment")
	}
	nframes := int((size + phys.PageSize - 1) / phys.PageSize)
	if nframes > layout.MaxShmFrames {
		return fmt.Errorf("kernel: shm segment of %d frames exceeds limit %d", nframes, layout.MaxShmFrames)
	}
	if va%phys.PageSize != 0 {
		return fmt.Errorf("kernel: shm attach address %#x not page aligned", va)
	}
	frames := make([]uint64, 0, nframes)
	for i := 0; i < nframes; i++ {
		f, err := k.allocFrame(phys.FrameUser)
		if err != nil {
			return err
		}
		frames = append(frames, uint64(f))
	}
	rec := layout.Shm{
		Key:        key,
		Size:       size,
		AttachedAt: va,
		Frames:     frames,
		Next:       p.D.Shm,
	}
	addr, _, err := k.Heap.WriteNewRecord(k.encode(rec.AppendRecord))
	if err != nil {
		return err
	}
	p.D.Shm = addr
	if err := k.writeProc(p); err != nil {
		return err
	}
	// Map the segment pages into the address space so normal loads and
	// stores reach them. The region record marks the range.
	if err := k.MapRegion(p, va, uint64(nframes)*phys.PageSize, layout.ProtRead|layout.ProtWrite, layout.RegionAnon, 0, 0); err != nil {
		return err
	}
	for i, f := range frames {
		pteAddr, _, werr := k.walk(p, va+uint64(i)*phys.PageSize, true)
		if werr != nil {
			return werr
		}
		if err := k.mapPresent(pteAddr, int(f), true, false); err != nil {
			return err
		}
	}
	return nil
}

// --- Pipes ---------------------------------------------------------------

// pipeBufCapacity is the circular buffer size (one page).
const pipeBufCapacity = phys.PageSize

// PipeOpen creates a pipe endpoint for the process.
func (k *Kernel) PipeOpen(p *Process, id uint32, peer uint32) error {
	frame, err := k.Alloc.Alloc(phys.FrameKernelHeap)
	if err != nil {
		return err
	}
	rec := layout.Pipe{
		ID:      id,
		Buf:     phys.FrameAddr(frame),
		PeerPID: peer,
		Next:    p.D.Pipes,
	}
	addr, _, err := k.Heap.WriteNewRecord(k.encode(rec.AppendRecord))
	if err != nil {
		return err
	}
	p.D.Pipes = addr
	return k.writeProc(p)
}

// lookupPipe walks the process's pipe list, decoding each record into
// *rec, and returns the address of pipe id's.
func (k *Kernel) lookupPipe(p *Process, id uint32, rec *layout.Pipe) (uint64, error) {
	cur := p.D.Pipes
	for hops := 0; cur != 0; hops++ {
		if hops > 4096 {
			return 0, k.oopsf(OopsBadStructure, "pid %d pipe list loop", p.PID)
		}
		if err := rec.Read(k.M.Mem, cur, k.P.VerifyCRC, &k.recBuf); err != nil {
			return 0, k.oopsf(OopsBadStructure, "pid %d pipe record: %v", p.PID, err)
		}
		if rec.ID == id {
			return cur, nil
		}
		cur = rec.Next
	}
	return 0, fmt.Errorf("kernel: pid %d has no pipe %d", p.PID, id)
}

// writePipeRec re-seals the pipe record at addr in place.
func (k *Kernel) writePipeRec(addr uint64, rec *layout.Pipe) error {
	return k.reseal(addr, k.encode(rec.AppendRecord))
}

// PipeWrite appends data to the pipe's circular buffer. The record's lock
// flag is held across the update — a kernel failure in this window leaves
// the pipe inconsistent, which is why the prototype refuses to resurrect
// pipes (Section 3.3).
func (k *Kernel) PipeWrite(p *Process, id uint32, data []byte) (int, error) {
	var rec layout.Pipe
	addr, err := k.lookupPipe(p, id, &rec)
	if err != nil {
		return 0, err
	}
	rec.Locked = true
	if err := k.writePipeRec(addr, &rec); err != nil {
		return 0, err
	}
	written := 0
	for _, b := range data {
		next := (rec.WritePos + 1) % pipeBufCapacity
		if next == rec.ReadPos {
			break // full
		}
		if err := k.M.Mem.WriteAt(rec.Buf+uint64(rec.WritePos), []byte{b}); err != nil {
			return written, k.oopsf(OopsBadStructure, "pipe buffer write: %v", err)
		}
		rec.WritePos = next
		written++
	}
	rec.Locked = false
	if err := k.writePipeRec(addr, &rec); err != nil {
		return written, err
	}
	return written, nil
}

// PipeRead removes up to len(buf) bytes from the pipe.
func (k *Kernel) PipeRead(p *Process, id uint32, buf []byte) (int, error) {
	var rec layout.Pipe
	addr, err := k.lookupPipe(p, id, &rec)
	if err != nil {
		return 0, err
	}
	rec.Locked = true
	if err := k.writePipeRec(addr, &rec); err != nil {
		return 0, err
	}
	read := 0
	for read < len(buf) && rec.ReadPos != rec.WritePos {
		var b [1]byte
		if err := k.M.Mem.ReadAt(rec.Buf+uint64(rec.ReadPos), b[:]); err != nil {
			return read, k.oopsf(OopsBadStructure, "pipe buffer read: %v", err)
		}
		buf[read] = b[0]
		rec.ReadPos = (rec.ReadPos + 1) % pipeBufCapacity
		read++
	}
	rec.Locked = false
	if err := k.writePipeRec(addr, &rec); err != nil {
		return read, err
	}
	if read == 0 {
		return 0, ErrWouldBlock
	}
	return read, nil
}

// --- Sockets ---------------------------------------------------------------

// SockOpen binds a socket on the local port and links its descriptor. The
// descriptor exists so resurrection can *report* the lost socket; payload
// state lives on the external wire.
func (k *Kernel) SockOpen(p *Process, id uint32, proto layout.SocketProto, localPort uint16) error {
	rec := layout.Socket{
		ID:        id,
		Proto:     proto,
		LocalPort: localPort,
		Next:      p.D.Sockets,
	}
	addr, _, err := k.Heap.WriteNewRecord(k.encode(rec.AppendRecord))
	if err != nil {
		return err
	}
	p.D.Sockets = addr
	return k.writeProc(p)
}

// lookupSocket walks the process's socket list, decoding each record into
// *rec, and returns the address of socket id's.
func (k *Kernel) lookupSocket(p *Process, id uint32, rec *layout.Socket) (uint64, error) {
	cur := p.D.Sockets
	for hops := 0; cur != 0; hops++ {
		if hops > 4096 {
			return 0, k.oopsf(OopsBadStructure, "pid %d socket list loop", p.PID)
		}
		if err := rec.Read(k.M.Mem, cur, k.P.VerifyCRC, &k.recBuf); err != nil {
			return 0, k.oopsf(OopsBadStructure, "pid %d socket record: %v", p.PID, err)
		}
		if rec.ID == id {
			return cur, nil
		}
		cur = rec.Next
	}
	return 0, fmt.Errorf("kernel: pid %d has no socket %d", p.PID, id)
}

// SockRecv pulls the next inbound message for the socket's port.
func (k *Kernel) SockRecv(p *Process, id uint32) ([]byte, error) {
	var rec layout.Socket
	if _, err := k.lookupSocket(p, id, &rec); err != nil {
		return nil, err
	}
	if k.P.Net == nil {
		return nil, ErrWouldBlock
	}
	payload, ok := k.P.Net.take(rec.LocalPort)
	if !ok {
		return nil, ErrWouldBlock
	}
	return payload, nil
}

// SockSend pushes a payload to the remote peer.
func (k *Kernel) SockSend(p *Process, id uint32, payload []byte) error {
	var rec layout.Socket
	if _, err := k.lookupSocket(p, id, &rec); err != nil {
		return err
	}
	if k.P.Net != nil {
		k.P.Net.send(rec.LocalPort, payload)
	}
	return nil
}

// --- Signals ---------------------------------------------------------------

// SigAction installs a signal handler, creating the signal table on first
// use.
func (k *Kernel) SigAction(p *Process, sig int, handler uint32) error {
	if sig < 0 || sig >= layout.NumSignals {
		return fmt.Errorf("kernel: bad signal %d", sig)
	}
	var tbl layout.Signals
	if p.D.Signals != 0 {
		if err := tbl.Read(k.M.Mem, p.D.Signals, k.P.VerifyCRC, &k.recBuf); err != nil {
			return k.oopsf(OopsBadStructure, "pid %d signal table: %v", p.PID, err)
		}
		tbl.Handlers[sig] = handler
		return k.reseal(p.D.Signals, k.encode(tbl.AppendRecord))
	}
	tbl.Handlers[sig] = handler
	addr, _, err := k.Heap.WriteNewRecord(k.encode(tbl.AppendRecord))
	if err != nil {
		return err
	}
	p.D.Signals = addr
	return k.writeProc(p)
}
