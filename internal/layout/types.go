package layout

// This file defines the Go-side views of every kernel record together with
// their codec: one decoder (Read) and one encoder (AppendRecord) per type,
// over the framing in record.go. The structures deliberately mirror the paper's
// simplified Linux structures: for example FileRec carries the path, open
// flags and current offset in one record, the Section 3.1 modification that
// lets the crash kernel recreate an open file from a single structure.

import "otherworld/internal/phys"

// Globals is the kernel globals anchor. It lives at a fixed, compile-time
// physical address (GlobalsAddr), which is how the crash kernel finds the
// head of the process list and the swap-area table (Section 3.3).
type Globals struct {
	Version      uint32
	BootCount    uint32 // incremented every morph; 0 on cold boot
	ProcListHead uint64 // physical address of the first Proc record (0 = none)
	SwapTable    uint64 // physical address of the SwapTable record
	NextPID      uint32
	// CrashRegionStart/CrashRegionFrames describe the reservation holding
	// the (protected) crash-kernel image and its working memory.
	CrashRegionStart  uint64
	CrashRegionFrames uint64
	// HeapStart/HeapFrames describe the kernel heap so diagnostic tools
	// can bound their scans.
	HeapStart  uint64
	HeapFrames uint64
}

// AppendRecord appends the globals anchor to dst as a complete sealed record.
func (g *Globals) AppendRecord(dst []byte) []byte {
	w := newRecord(dst)
	w.u32(g.Version)
	w.u32(g.BootCount)
	w.u64(g.ProcListHead)
	w.u64(g.SwapTable)
	w.u32(g.NextPID)
	w.u64(g.CrashRegionStart)
	w.u64(g.CrashRegionFrames)
	w.u64(g.HeapStart)
	w.u64(g.HeapFrames)
	return w.seal(TypeGlobals)
}

func (g *Globals) decode(addr uint64, payload []byte) error {
	r := reader{buf: payload}
	g.Version = r.u32()
	g.BootCount = r.u32()
	g.ProcListHead = r.u64()
	g.SwapTable = r.u64()
	g.NextPID = r.u32()
	g.CrashRegionStart = r.u64()
	g.CrashRegionFrames = r.u64()
	g.HeapStart = r.u64()
	g.HeapFrames = r.u64()
	return r.finish(addr, TypeGlobals)
}

// Read decodes the globals anchor at addr into *g through *buf, the caller's
// reusable record buffer (readRecord). *g is written only on success.
func (g *Globals) Read(m Reader, addr uint64, verifyCRC bool, buf *[]byte) error {
	got := *g
	if err := readInto(m, addr, TypeGlobals, verifyCRC, buf, got.decode); err != nil {
		return err
	}
	*g = got
	return nil
}

// ProcState is a process's scheduling state.
type ProcState uint8

// Process states.
const (
	ProcRunnable ProcState = iota
	ProcSleeping
	ProcZombie
)

// Proc is a process descriptor, the simulation's task_struct. Processes form
// a singly linked list through Next, anchored at Globals.ProcListHead.
type Proc struct {
	PID   uint32
	State ProcState
	// Name is the process name (comm).
	Name string
	// Program identifies the executable: the registry key under which the
	// application's Program implementation is registered, playing the
	// role of the executable path the crash kernel would re-map.
	Program string
	// CrashProc names the registered crash procedure ("" if none). The
	// paper stores the procedure's address in the process descriptor
	// (Section 3.1); we store a name resolved through the crash-procedure
	// registry, the simulation's equivalent of a user-space entry point.
	CrashProc string
	// PageDir is the physical address of the page-directory page.
	PageDir uint64
	// MemRegions is the head of the memory-region descriptor list.
	MemRegions uint64
	// Files is the head of the open-file record list (the fd table).
	Files uint64
	// KStack is the physical address of the kernel stack frame holding
	// the saved hardware context.
	KStack uint64
	// Terminal is the attached terminal record (0 if none).
	Terminal uint64
	// Signals is the signal-handler table record (0 if none).
	Signals uint64
	// Shm, Pipes, Sockets head the respective resource lists.
	Shm     uint64
	Pipes   uint64
	Sockets uint64
	// Next is the next process descriptor (0 ends the list).
	Next uint64
}

// AppendRecord appends a process descriptor to dst as a complete sealed record.
func (p *Proc) AppendRecord(dst []byte) []byte {
	w := newRecord(dst)
	w.u32(p.PID)
	w.u8(uint8(p.State))
	w.str(p.Name)
	w.str(p.Program)
	w.str(p.CrashProc)
	w.u64(p.PageDir)
	w.u64(p.MemRegions)
	w.u64(p.Files)
	w.u64(p.KStack)
	w.u64(p.Terminal)
	w.u64(p.Signals)
	w.u64(p.Shm)
	w.u64(p.Pipes)
	w.u64(p.Sockets)
	w.u64(p.Next)
	return w.seal(TypeProc)
}

func (p *Proc) decode(addr uint64, payload []byte) error {
	r := reader{buf: payload}
	p.PID = r.u32()
	p.State = ProcState(r.u8())
	p.Name = r.str(p.Name)
	p.Program = r.str(p.Program)
	p.CrashProc = r.str(p.CrashProc)
	p.PageDir = r.u64()
	p.MemRegions = r.u64()
	p.Files = r.u64()
	p.KStack = r.u64()
	p.Terminal = r.u64()
	p.Signals = r.u64()
	p.Shm = r.u64()
	p.Pipes = r.u64()
	p.Sockets = r.u64()
	p.Next = r.u64()
	return r.finish(addr, TypeProc)
}

// Read decodes a process descriptor at addr into *p through *buf, the caller's
// reusable record buffer (readRecord). *p is written only on success.
func (p *Proc) Read(m Reader, addr uint64, verifyCRC bool, buf *[]byte) error {
	got := *p
	if err := readInto(m, addr, TypeProc, verifyCRC, buf, got.decode); err != nil {
		return err
	}
	*p = got
	return nil
}

// ReadProc is Proc.Read into a fresh descriptor through a fresh buffer, for
// a caller that keeps neither.
func ReadProc(m Reader, addr uint64, verifyCRC bool) (*Proc, error) {
	var p Proc
	var buf []byte
	if err := p.Read(m, addr, verifyCRC, &buf); err != nil {
		return nil, err
	}
	return &p, nil
}

// RegionKind distinguishes anonymous from file-backed memory regions.
type RegionKind uint8

// Memory region kinds.
const (
	RegionAnon RegionKind = iota
	RegionFileMap
)

// Region protection bits.
const (
	ProtRead  uint8 = 1 << 0
	ProtWrite uint8 = 1 << 1
	ProtExec  uint8 = 1 << 2
)

// MemRegion describes one virtual memory region (a vm_area_struct).
type MemRegion struct {
	Start uint64 // first virtual address
	End   uint64 // one past the last virtual address
	Prot  uint8
	Kind  RegionKind
	// File is the physical address of the backing FileRec for
	// RegionFileMap regions.
	File uint64
	// FileOffset is the file offset the region maps from.
	FileOffset uint64
	// Next links the process's region list.
	Next uint64
}

// AppendRecord appends a memory-region descriptor to dst as a complete sealed record.
func (v *MemRegion) AppendRecord(dst []byte) []byte {
	w := newRecord(dst)
	w.u64(v.Start)
	w.u64(v.End)
	w.u8(v.Prot)
	w.u8(uint8(v.Kind))
	w.u64(v.File)
	w.u64(v.FileOffset)
	w.u64(v.Next)
	return w.seal(TypeMemRegion)
}

func (v *MemRegion) decode(addr uint64, payload []byte) error {
	r := reader{buf: payload}
	v.Start = r.u64()
	v.End = r.u64()
	v.Prot = r.u8()
	v.Kind = RegionKind(r.u8())
	v.File = r.u64()
	v.FileOffset = r.u64()
	v.Next = r.u64()
	if err := r.finish(addr, TypeMemRegion); err != nil {
		return err
	}
	if v.End < v.Start {
		return &CorruptionError{Addr: addr, Want: TypeMemRegion, Reason: "region end before start"}
	}
	return nil
}

// Read decodes a memory-region descriptor at addr into *v through *buf, the caller's
// reusable record buffer (readRecord). *v is written only on success.
func (v *MemRegion) Read(m Reader, addr uint64, verifyCRC bool, buf *[]byte) error {
	got := *v
	if err := readInto(m, addr, TypeMemRegion, verifyCRC, buf, got.decode); err != nil {
		return err
	}
	*v = got
	return nil
}

// Open-file flag bits, a subset of POSIX open(2) semantics.
const (
	FlagRead   uint32 = 1 << 0
	FlagWrite  uint32 = 1 << 1
	FlagCreate uint32 = 1 << 2
	FlagAppend uint32 = 1 << 3
	FlagTrunc  uint32 = 1 << 4
)

// FileRec is an open-file record. Per the paper's Section 3.1 modification,
// it carries everything needed to recreate the open file — path, flags,
// current offset and the fd-table position — in one structure, instead of
// spreading it across file, inode and dentry structures.
type FileRec struct {
	FD     uint32
	Path   string
	Flags  uint32
	Offset uint64
	// Mapped records whether the file backs a memory region.
	Mapped bool
	// CachePages heads this file's page-cache entry list; entries with
	// the dirty flag set must be flushed during resurrection
	// (Section 3.3).
	CachePages uint64
	// Next links the process's open-file list.
	Next uint64
}

// AppendRecord appends an open-file record to dst as a complete sealed record.
func (f *FileRec) AppendRecord(dst []byte) []byte {
	w := newRecord(dst)
	w.u32(f.FD)
	w.str(f.Path)
	w.u32(f.Flags)
	w.u64(f.Offset)
	w.boolean(f.Mapped)
	w.u64(f.CachePages)
	w.u64(f.Next)
	return w.seal(TypeFile)
}

func (f *FileRec) decode(addr uint64, payload []byte) error {
	r := reader{buf: payload}
	f.FD = r.u32()
	f.Path = r.str(f.Path)
	f.Flags = r.u32()
	f.Offset = r.u64()
	f.Mapped = r.boolean()
	f.CachePages = r.u64()
	f.Next = r.u64()
	return r.finish(addr, TypeFile)
}

// Read decodes an open-file record at addr into *f through *buf, the caller's
// reusable record buffer (readRecord). *f is written only on success.
func (f *FileRec) Read(m Reader, addr uint64, verifyCRC bool, buf *[]byte) error {
	got := *f
	if err := readInto(m, addr, TypeFile, verifyCRC, buf, got.decode); err != nil {
		return err
	}
	*f = got
	return nil
}

// MaxSwapAreas is the size of the fixed swap-descriptor array (Section 3.3:
// "stored in a fixed size array accessible through another global
// variable").
const MaxSwapAreas = 4

// SwapArea describes one swap partition.
type SwapArea struct {
	// Device is the symbolic device name, enough for the crash kernel to
	// reopen it.
	Device string
	Active bool
	// Slots is the partition capacity in pages.
	Slots uint32
}

// SwapTable is the fixed-size swap-area descriptor array.
type SwapTable struct {
	Areas [MaxSwapAreas]SwapArea
}

// AppendRecord appends the swap-area table to dst as a complete sealed record.
func (t *SwapTable) AppendRecord(dst []byte) []byte {
	w := newRecord(dst)
	for i := range t.Areas {
		w.str(t.Areas[i].Device)
		w.boolean(t.Areas[i].Active)
		w.u32(t.Areas[i].Slots)
	}
	return w.seal(TypeSwapTable)
}

func (t *SwapTable) decode(addr uint64, payload []byte) error {
	r := reader{buf: payload}
	for i := range t.Areas {
		t.Areas[i].Device = r.str(t.Areas[i].Device)
		t.Areas[i].Active = r.boolean()
		t.Areas[i].Slots = r.u32()
	}
	return r.finish(addr, TypeSwapTable)
}

// Read decodes the swap-area table at addr into *t through *buf, the caller's
// reusable record buffer (readRecord). *t is written only on success.
func (t *SwapTable) Read(m Reader, addr uint64, verifyCRC bool, buf *[]byte) error {
	got := *t
	if err := readInto(m, addr, TypeSwapTable, verifyCRC, buf, got.decode); err != nil {
		return err
	}
	*t = got
	return nil
}

// Terminal is a physical terminal's kernel state: geometry, settings and the
// physical address of the screen buffer ("the screen contents of the
// physical terminal in Linux is stored in a kernel buffer", Section 3.3).
type Terminal struct {
	Index     uint32
	Rows      uint16
	Cols      uint16
	CursorRow uint16
	CursorCol uint16
	// Settings packs termios-style mode bits.
	Settings uint32
	// Screen is the physical address of the rows*cols screen bytes, which
	// every kernel keeps in one frame.
	Screen uint64
}

// AppendRecord appends a terminal record to dst as a complete sealed record.
func (t *Terminal) AppendRecord(dst []byte) []byte {
	w := newRecord(dst)
	w.u32(t.Index)
	w.u16(t.Rows)
	w.u16(t.Cols)
	w.u16(t.CursorRow)
	w.u16(t.CursorCol)
	w.u32(t.Settings)
	w.u64(t.Screen)
	return w.seal(TypeTerminal)
}

func (t *Terminal) decode(addr uint64, payload []byte) error {
	r := reader{buf: payload}
	t.Index = r.u32()
	t.Rows = r.u16()
	t.Cols = r.u16()
	t.CursorRow = r.u16()
	t.CursorCol = r.u16()
	t.Settings = r.u32()
	t.Screen = r.u64()
	if err := r.finish(addr, TypeTerminal); err != nil {
		return err
	}
	if t.Rows == 0 || t.Cols == 0 || int(t.Rows)*int(t.Cols) > phys.PageSize {
		return &CorruptionError{Addr: addr, Want: TypeTerminal, Reason: "implausible geometry"}
	}
	return nil
}

// Read decodes a terminal record at addr into *t through *buf, the caller's
// reusable record buffer (readRecord). *t is written only on success.
func (t *Terminal) Read(m Reader, addr uint64, verifyCRC bool, buf *[]byte) error {
	got := *t
	if err := readInto(m, addr, TypeTerminal, verifyCRC, buf, got.decode); err != nil {
		return err
	}
	*t = got
	return nil
}

// NumSignals is the size of the per-process signal-handler table.
const NumSignals = 32

// Signals is a process's signal-handler descriptor table. Handler values
// are opaque user-space identifiers (0 = default action).
type Signals struct {
	Handlers [NumSignals]uint32
	// Blocked is the signal mask.
	Blocked uint32
}

// AppendRecord appends a signal table to dst as a complete sealed record.
func (s *Signals) AppendRecord(dst []byte) []byte {
	w := newRecord(dst)
	for _, h := range s.Handlers {
		w.u32(h)
	}
	w.u32(s.Blocked)
	return w.seal(TypeSignals)
}

func (s *Signals) decode(addr uint64, payload []byte) error {
	r := reader{buf: payload}
	for i := range s.Handlers {
		s.Handlers[i] = r.u32()
	}
	s.Blocked = r.u32()
	return r.finish(addr, TypeSignals)
}

// Read decodes a signal table at addr into *s through *buf, the caller's
// reusable record buffer (readRecord). *s is written only on success.
func (s *Signals) Read(m Reader, addr uint64, verifyCRC bool, buf *[]byte) error {
	got := *s
	if err := readInto(m, addr, TypeSignals, verifyCRC, buf, got.decode); err != nil {
		return err
	}
	*s = got
	return nil
}

// MaxShmFrames bounds a shared-memory segment's frame list so the descriptor
// record fits inside one kernel heap frame (records never span frames).
const MaxShmFrames = 448

// Shm is a System-V-style shared-memory segment descriptor.
type Shm struct {
	Key  uint64
	Size uint64
	// AttachedAt is the virtual address the segment is mapped at.
	AttachedAt uint64
	// Frames are the physical frames backing the segment.
	Frames []uint64
	// Next links the process's segment list.
	Next uint64
}

// AppendRecord appends a shared-memory descriptor to dst as a complete sealed record.
func (s *Shm) AppendRecord(dst []byte) []byte {
	w := newRecord(dst)
	w.u64(s.Key)
	w.u64(s.Size)
	w.u64(s.AttachedAt)
	w.u32(uint32(len(s.Frames)))
	for _, f := range s.Frames {
		w.u64(f)
	}
	w.u64(s.Next)
	return w.seal(TypeShm)
}

func (s *Shm) decode(addr uint64, payload []byte) error {
	r := reader{buf: payload}
	s.Key = r.u64()
	s.Size = r.u64()
	s.AttachedAt = r.u64()
	n := r.u32()
	if r.err == nil && n > MaxShmFrames {
		return &CorruptionError{Addr: addr, Want: TypeShm, Reason: "implausible frame count"}
	}
	s.Frames = make([]uint64, 0, n)
	for i := uint32(0); i < n && r.err == nil; i++ {
		s.Frames = append(s.Frames, r.u64())
	}
	s.Next = r.u64()
	return r.finish(addr, TypeShm)
}

// Read decodes a shared-memory descriptor at addr into *s through *buf, the caller's
// reusable record buffer (readRecord). *s is written only on success.
func (s *Shm) Read(m Reader, addr uint64, verifyCRC bool, buf *[]byte) error {
	got := *s
	if err := readInto(m, addr, TypeShm, verifyCRC, buf, got.decode); err != nil {
		return err
	}
	*s = got
	return nil
}

// Pipe is a pipe descriptor. The prototype does not resurrect pipes
// (Section 3.3); the record exists so the crash kernel can *detect* them
// and report the unresurrected-resource bit to the crash procedure. The
// Locked flag models the pipe semaphore: a locked pipe was mid-access when
// the kernel failed and must be assumed inconsistent.
type Pipe struct {
	ID       uint32
	Buf      uint64 // physical address of the circular buffer page
	ReadPos  uint32
	WritePos uint32
	Locked   bool
	PeerPID  uint32
	Next     uint64
}

// AppendRecord appends a pipe descriptor to dst as a complete sealed record.
func (p *Pipe) AppendRecord(dst []byte) []byte {
	w := newRecord(dst)
	w.u32(p.ID)
	w.u64(p.Buf)
	w.u32(p.ReadPos)
	w.u32(p.WritePos)
	w.boolean(p.Locked)
	w.u32(p.PeerPID)
	w.u64(p.Next)
	return w.seal(TypePipe)
}

func (p *Pipe) decode(addr uint64, payload []byte) error {
	r := reader{buf: payload}
	p.ID = r.u32()
	p.Buf = r.u64()
	p.ReadPos = r.u32()
	p.WritePos = r.u32()
	p.Locked = r.boolean()
	p.PeerPID = r.u32()
	p.Next = r.u64()
	return r.finish(addr, TypePipe)
}

// Read decodes a pipe descriptor at addr into *p through *buf, the caller's
// reusable record buffer (readRecord). *p is written only on success.
func (p *Pipe) Read(m Reader, addr uint64, verifyCRC bool, buf *[]byte) error {
	got := *p
	if err := readInto(m, addr, TypePipe, verifyCRC, buf, got.decode); err != nil {
		return err
	}
	*p = got
	return nil
}

// SocketProto is the transport protocol of a socket.
type SocketProto uint8

// Socket protocols.
const (
	ProtoTCP SocketProto = iota
	ProtoUDP
)

// Socket is a network-socket descriptor; like pipes, sockets are not
// resurrected by the prototype and only exist so they can be reported.
type Socket struct {
	ID         uint32
	Proto      SocketProto
	LocalPort  uint16
	RemotePort uint16
	// Seq and Window capture the TCP connection parameters the paper
	// lists as necessary for future socket resurrection.
	Seq    uint32
	Window uint32
	Next   uint64
}

// AppendRecord appends a socket descriptor to dst as a complete sealed record.
func (s *Socket) AppendRecord(dst []byte) []byte {
	w := newRecord(dst)
	w.u32(s.ID)
	w.u8(uint8(s.Proto))
	w.u16(s.LocalPort)
	w.u16(s.RemotePort)
	w.u32(s.Seq)
	w.u32(s.Window)
	w.u64(s.Next)
	return w.seal(TypeSocket)
}

func (s *Socket) decode(addr uint64, payload []byte) error {
	r := reader{buf: payload}
	s.ID = r.u32()
	s.Proto = SocketProto(r.u8())
	s.LocalPort = r.u16()
	s.RemotePort = r.u16()
	s.Seq = r.u32()
	s.Window = r.u32()
	s.Next = r.u64()
	return r.finish(addr, TypeSocket)
}

// Read decodes a socket descriptor at addr into *s through *buf, the caller's
// reusable record buffer (readRecord). *s is written only on success.
func (s *Socket) Read(m Reader, addr uint64, verifyCRC bool, buf *[]byte) error {
	got := *s
	if err := readInto(m, addr, TypeSocket, verifyCRC, buf, got.decode); err != nil {
		return err
	}
	*s = got
	return nil
}

// CachePage is one page-cache entry: a leaf of the paper's file-buffer tree
// carrying the page's file offset, its physical frame and the dirty flag the
// crash kernel consults when flushing (Section 3.3).
type CachePage struct {
	FileOff uint64
	Frame   uint64
	Dirty   bool
	// Bytes is how much of the page holds valid file data.
	Bytes uint32
	Next  uint64
}

// AppendRecord appends a page-cache entry to dst as a complete sealed record.
func (c *CachePage) AppendRecord(dst []byte) []byte {
	w := newRecord(dst)
	w.u64(c.FileOff)
	w.u64(c.Frame)
	w.boolean(c.Dirty)
	w.u32(c.Bytes)
	w.u64(c.Next)
	return w.seal(TypeCachePage)
}

func (c *CachePage) decode(addr uint64, payload []byte) error {
	r := reader{buf: payload}
	c.FileOff = r.u64()
	c.Frame = r.u64()
	c.Dirty = r.boolean()
	c.Bytes = r.u32()
	c.Next = r.u64()
	return r.finish(addr, TypeCachePage)
}

// Read decodes a page-cache entry at addr into *c through *buf, the caller's
// reusable record buffer (readRecord). *c is written only on success.
func (c *CachePage) Read(m Reader, addr uint64, verifyCRC bool, buf *[]byte) error {
	got := *c
	if err := readInto(m, addr, TypeCachePage, verifyCRC, buf, got.decode); err != nil {
		return err
	}
	*c = got
	return nil
}
