package apps

import (
	"fmt"

	"otherworld/internal/kernel"
	"otherworld/internal/layout"
)

// The editors (Section 5.1). vi needs no modification to survive a
// microreboot: its reads retry naturally. JOE originally "treated any error
// code returned by the console read function as a critical error and
// terminated itself"; the paper's one-line fix reissues failed console
// reads. Both variants are modelled: ProgJoe carries the fix, and
// ProgJoeUnpatched reproduces the original failure.

type editorKind int

const (
	editorVi editorKind = iota
	editorJoe
	editorJoeUnpatched
)

// Editor keystrokes with special meaning.
const (
	// KeyBackspace deletes the last character.
	KeyBackspace byte = 0x08
	// KeyUndo undoes the last edit (^U).
	KeyUndo byte = 0x15
	// KeySave writes the document to its file (^S / :w).
	KeySave byte = 0x13
)

// Editor memory layout. All state lives in the address space so
// resurrection restores "not only ... the latest contents of all documents,
// but also ... the undo buffer, relative window positions and other
// application state".
const (
	edHdrVA   = 0x100000
	edDocVA   = 0x110000
	edDocCap  = 1 << 20
	edUndoVA  = 0x400000
	edUndoCap = 1 << 16 // entries
	edWinVA   = 0x600000
	edWinCap  = 1 << 16 // JOE second-window buffer
)

// Header word offsets (u64 each). Document and undo lengths share one
// word so a single atomic store commits an edit: a kernel crash between an
// edit's byte writes and its header commit leaves the previous consistent
// state, never a torn one.
const (
	edMagicOff = 8 * iota
	edLensOff  // packed: docLen (low 24 bits) | undoLen << 24
	edSavesOff
	edKeysOff
	edFDOff
	edWinLenOff
)

// packLens combines the two lengths into the atomic header word.
func packLens(docLen, undoLen uint64) uint64 { return docLen&0xFFFFFF | undoLen<<24 }

// unpackLens splits the header word.
func unpackLens(w uint64) (docLen, undoLen uint64) { return w & 0xFFFFFF, w >> 24 & 0xFFFFFF }

const edMagic = 0xED170001

// undo entry opcodes.
const (
	undoInsert byte = 1
	undoDelete byte = 2
)

// editor implements vi and both JOE variants. The struct itself is
// stateless: every step reloads what it needs from the address space.
type editor struct {
	kind editorKind
}

func newEditor(kind editorKind) *editor { return &editor{kind: kind} }

// docPath returns the file the editor edits.
func (e *editor) docPath() string {
	switch e.kind {
	case editorVi:
		return "/home/user/vi.txt"
	default:
		return "/home/user/joe.txt"
	}
}

func (e *editor) Boot(env *kernel.Env) error {
	rw := uint8(layout.ProtRead | layout.ProtWrite)
	if err := env.MapAnon(edHdrVA, 4096, rw); err != nil {
		return err
	}
	if err := env.MapAnon(edDocVA, edDocCap, rw); err != nil {
		return err
	}
	if err := env.MapAnon(edUndoVA, edUndoCap*2, rw); err != nil {
		return err
	}
	if e.kind != editorVi {
		// JOE's multi-window support keeps a second buffer.
		if err := env.MapAnon(edWinVA, edWinCap, rw); err != nil {
			return err
		}
	}
	if err := env.TermOpen(uint32(env.PID())); err != nil {
		return err
	}
	fd, err := env.Open(e.docPath(), layout.FlagRead|layout.FlagWrite|layout.FlagCreate)
	if err != nil {
		return err
	}
	if err := env.WriteU64(edHdrVA+edMagicOff, edMagic); err != nil {
		return err
	}
	return env.WriteU64(edHdrVA+edFDOff, uint64(fd))
}

func (e *editor) Step(env *kernel.Env) error {
	if env.SyscallAborted() && e.kind == editorJoeUnpatched {
		// Unmodified JOE treats the aborted console read as fatal.
		return env.Exit(1)
	}

	key, ok, err := env.TermRead()
	if err != nil {
		if e.kind == editorJoeUnpatched {
			return env.Exit(1)
		}
		return err
	}
	if !ok {
		return kernel.ErrYield
	}

	magic, err := env.ReadU64(edHdrVA + edMagicOff)
	if err != nil {
		return err
	}
	if magic != edMagic {
		return fmt.Errorf("editor: state corrupted (magic %#x)", magic)
	}
	lens, err := env.ReadU64(edHdrVA + edLensOff)
	if err != nil {
		return err
	}
	docLen, undoLen := unpackLens(lens)

	switch key {
	case KeyBackspace:
		if docLen > 0 {
			var ch [1]byte
			if err := env.Read(edDocVA+docLen-1, ch[:]); err != nil {
				return err
			}
			docLen--
			if undoLen < edUndoCap {
				if err := env.Write(edUndoVA+undoLen*2, []byte{undoDelete, ch[0]}); err != nil {
					return err
				}
				undoLen++
			}
		}
	case KeyUndo:
		if undoLen > 0 {
			undoLen--
			var entry [2]byte
			if err := env.Read(edUndoVA+undoLen*2, entry[:]); err != nil {
				return err
			}
			switch entry[0] {
			case undoInsert:
				if docLen > 0 {
					docLen--
				}
			case undoDelete:
				if docLen < edDocCap {
					if err := env.Write(edDocVA+docLen, []byte{entry[1]}); err != nil {
						return err
					}
					docLen++
				}
			}
		}
	case KeySave:
		if err := e.save(env, docLen); err != nil {
			return err
		}
		saves, rerr := env.ReadU64(edHdrVA + edSavesOff)
		if rerr != nil {
			return rerr
		}
		if err := env.WriteU64(edHdrVA+edSavesOff, saves+1); err != nil {
			return err
		}
	default:
		if docLen < edDocCap {
			if err := env.Write(edDocVA+docLen, []byte{key}); err != nil {
				return err
			}
			docLen++
			if undoLen < edUndoCap {
				if err := env.Write(edUndoVA+undoLen*2, []byte{undoInsert, key}); err != nil {
					return err
				}
				undoLen++
			}
			if err := env.TermWrite([]byte{key}); err != nil {
				return err
			}
			if e.kind != editorVi {
				// JOE mirrors the tail of the buffer into the second
				// window (syntax-highlighted view).
				winLen := docLen
				if winLen > edWinCap {
					winLen = edWinCap
				}
				if err := env.Write(edWinVA+winLen-1, []byte{key}); err != nil {
					return err
				}
				if err := env.WriteU64(edHdrVA+edWinLenOff, winLen); err != nil {
					return err
				}
			}
		}
	}

	// The atomic commit of this keystroke's effects.
	if err := env.WriteU64(edHdrVA+edLensOff, packLens(docLen, undoLen)); err != nil {
		return err
	}
	keys, err := env.ReadU64(edHdrVA + edKeysOff)
	if err != nil {
		return err
	}
	if err := env.WriteU64(edHdrVA+edKeysOff, keys+1); err != nil {
		return err
	}
	// Editing is memory-light and syscall-light: the paper notes editors
	// "do not have a high rate of system calls".
	env.Compute(5000)
	return nil
}

// save writes a length-prefixed document image to the editor's file and
// fsyncs it.
func (e *editor) save(env *kernel.Env, docLen uint64) error {
	fdWord, err := env.ReadU64(edHdrVA + edFDOff)
	if err != nil {
		return err
	}
	fd := uint32(fdWord)
	doc := make([]byte, docLen)
	if err := env.Read(edDocVA, doc); err != nil {
		return err
	}
	if err := env.Seek(fd, 0); err != nil {
		return err
	}
	var lenPrefix [8]byte
	for i := 0; i < 8; i++ {
		lenPrefix[i] = byte(docLen >> (8 * i))
	}
	if _, err := env.WriteFile(fd, lenPrefix[:]); err != nil {
		return err
	}
	if _, err := env.WriteFile(fd, doc); err != nil {
		return err
	}
	return env.Fsync(fd)
}

// EditorSnapshot is the externally observable editor state, used by the
// verification harness (the paper's remote progress log).
type EditorSnapshot struct {
	Doc     string
	UndoLen uint64
	Saves   uint64
	Keys    uint64
	WinLen  uint64
}

// SnapshotEditor reads the editor state out of a process's address space.
func SnapshotEditor(env *kernel.Env) (*EditorSnapshot, error) {
	magic, err := env.ReadU64(edHdrVA + edMagicOff)
	if err != nil {
		return nil, err
	}
	if magic != edMagic {
		return nil, fmt.Errorf("editor state corrupted: magic %#x", magic)
	}
	lens, err := env.ReadU64(edHdrVA + edLensOff)
	if err != nil {
		return nil, err
	}
	docLen, undoLen := unpackLens(lens)
	if docLen > edDocCap {
		return nil, fmt.Errorf("editor state corrupted: docLen %d", docLen)
	}
	doc := make([]byte, docLen)
	if err := env.Read(edDocVA, doc); err != nil {
		return nil, err
	}
	s := &EditorSnapshot{Doc: string(doc), UndoLen: undoLen}
	if s.Saves, err = env.ReadU64(edHdrVA + edSavesOff); err != nil {
		return nil, err
	}
	if s.Keys, err = env.ReadU64(edHdrVA + edKeysOff); err != nil {
		return nil, err
	}
	if s.WinLen, err = env.ReadU64(edHdrVA + edWinLenOff); err != nil {
		return nil, err
	}
	return s, nil
}
