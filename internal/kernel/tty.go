package kernel

import (
	"bytes"
	"fmt"

	"otherworld/internal/layout"
	"otherworld/internal/phys"
)

// ttyRuntime is the kernel's live handle on a terminal: the record address
// plus nothing else — screen contents and geometry live in the record and
// the screen buffer frame so resurrection can rebuild them.
type ttyRuntime struct {
	recAddr uint64
}

// defaultTTYRows/Cols match a VGA text console.
const (
	defaultTTYRows = 25
	defaultTTYCols = 80
)

// TermPseudo marks a pseudo terminal in the settings word. The prototype
// "can only restore the state of physical terminals" (Section 3.3):
// resurrection skips pseudo terminals and reports them through the
// missing-resource bitmask instead.
const TermPseudo uint32 = 1 << 8

// blankScreen is a fresh terminal's screen: defaultTTYRows×defaultTTYCols
// spaces, shared by every open and never written.
var blankScreen = bytes.Repeat([]byte{' '}, defaultTTYRows*defaultTTYCols)

// OpenTerminal attaches a physical terminal to the process, allocating the
// kernel screen buffer and the terminal record (Section 3.3: screen
// contents live in a kernel buffer reachable from the process descriptor).
func (k *Kernel) OpenTerminal(p *Process, index uint32) error {
	rec := layout.Terminal{Index: index, Rows: defaultTTYRows, Cols: defaultTTYCols}
	return k.openTerminal(p, rec, blankScreen)
}

// OpenPseudoTerminal attaches a pty (as an sshd or terminal emulator
// would). Pseudo terminals are not resurrectable in the prototype.
func (k *Kernel) OpenPseudoTerminal(p *Process, index uint32) error {
	rec := layout.Terminal{Index: index, Rows: defaultTTYRows, Cols: defaultTTYCols, Settings: TermPseudo}
	return k.openTerminal(p, rec, blankScreen)
}

// openTerminal attaches the terminal rec describes (index, geometry, cursor
// and settings) to the process: it allocates the screen frame, writes the
// first rows*cols bytes of screen into it, then seals rec, pointed at that
// frame, as the process's terminal record.
func (k *Kernel) openTerminal(p *Process, rec layout.Terminal, screen []byte) error {
	if p.D.Terminal != 0 {
		return fmt.Errorf("kernel: pid %d already has a terminal", p.PID)
	}
	screenFrame, err := k.Alloc.Alloc(phys.FrameKernelHeap)
	if err != nil {
		return err
	}
	rec.Screen = phys.FrameAddr(screenFrame)
	n := min(int(rec.Rows)*int(rec.Cols), len(screen))
	if err := k.M.Mem.WriteAt(rec.Screen, screen[:n]); err != nil {
		return err
	}
	addr, _, err := k.Heap.WriteNewRecord(k.encode(rec.AppendRecord))
	if err != nil {
		return err
	}
	p.D.Terminal = addr
	if err := k.writeProc(p); err != nil {
		return err
	}
	k.terminals[rec.Index] = &ttyRuntime{recAddr: addr}
	return nil
}

// readTerminalRec decodes the process's terminal record into *rec and
// returns its address.
func (k *Kernel) readTerminalRec(p *Process, rec *layout.Terminal) (uint64, error) {
	if p.D.Terminal == 0 {
		return 0, fmt.Errorf("kernel: pid %d has no terminal", p.PID)
	}
	if err := rec.Read(k.M.Mem, p.D.Terminal, k.P.VerifyCRC, &k.recBuf); err != nil {
		return 0, k.oopsf(OopsBadStructure, "pid %d terminal record: %v", p.PID, err)
	}
	return p.D.Terminal, nil
}

// termWrite renders bytes at the cursor, wrapping lines and scrolling, then
// persists cursor state. '\n' moves to the next line's start. The screen
// is rendered in the kernel's page buffer: the decoder bounds rows*cols by
// the one frame the screen lives in.
func (k *Kernel) termWrite(p *Process, data []byte) error {
	var rec layout.Terminal
	addr, err := k.readTerminalRec(p, &rec)
	if err != nil {
		return err
	}
	rows, cols := int(rec.Rows), int(rec.Cols)
	screen := k.pageBuffer(rows * cols)
	if err := k.M.Mem.ReadAt(rec.Screen, screen); err != nil {
		return k.oopsf(OopsBadStructure, "pid %d screen buffer: %v", p.PID, err)
	}
	r, c := int(rec.CursorRow), int(rec.CursorCol)
	for _, b := range data {
		if b == '\n' {
			r, c = r+1, 0
		} else {
			if r < rows && c < cols {
				screen[r*cols+c] = b
			}
			c++
			if c >= cols {
				r, c = r+1, 0
			}
		}
		if r >= rows {
			// Scroll up one line.
			copy(screen, screen[cols:])
			for i := (rows - 1) * cols; i < rows*cols; i++ {
				screen[i] = ' '
			}
			r = rows - 1
		}
	}
	if err := k.M.Mem.WriteAt(rec.Screen, screen); err != nil {
		return k.oopsf(OopsBadStructure, "pid %d screen write: %v", p.PID, err)
	}
	rec.CursorRow, rec.CursorCol = uint16(r), uint16(c)
	return k.writeTerminalRec(addr, &rec)
}

// writeTerminalRec re-seals the terminal record at addr in place.
func (k *Kernel) writeTerminalRec(addr uint64, rec *layout.Terminal) error {
	return k.reseal(addr, k.encode(rec.AppendRecord))
}

// termRead pulls one keystroke from the console hub for the process's
// terminal. ok is false when the user has nothing queued.
func (k *Kernel) termRead(p *Process) (byte, bool, error) {
	var rec layout.Terminal
	if _, err := k.readTerminalRec(p, &rec); err != nil {
		return 0, false, err
	}
	if k.P.Consoles == nil {
		return 0, false, nil
	}
	b, ok := k.P.Consoles.readKey(rec.Index)
	return b, ok, nil
}

// ScreenContents returns the terminal screen of a process as rows of bytes,
// for verification and the narrated demo.
func (k *Kernel) ScreenContents(p *Process) ([][]byte, error) {
	var rec layout.Terminal
	if _, err := k.readTerminalRec(p, &rec); err != nil {
		return nil, err
	}
	rows, cols := int(rec.Rows), int(rec.Cols)
	screen := make([]byte, rows*cols)
	if err := k.M.Mem.ReadAt(rec.Screen, screen); err != nil {
		return nil, err
	}
	out := make([][]byte, rows)
	for r := 0; r < rows; r++ {
		out[r] = screen[r*cols : (r+1)*cols]
	}
	return out, nil
}
