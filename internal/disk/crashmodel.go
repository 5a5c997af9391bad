package disk

import (
	"bytes"
	"fmt"

	"otherworld/internal/fs"
	"otherworld/internal/phys"
	"otherworld/internal/sim"
)

// SectorSize is the atomic write unit of the modeled platter, the file
// store's sector. A power cut mid-write leaves whole sectors before the
// failure point intact and the in-flight sector partially written — the
// torn write FIRST's SIGKILL-based harness cannot model and this simulated
// disk can.
const SectorSize = fs.SectorSize

// DefaultCacheDepth bounds the volatile write cache: this many acked block
// writes may still be in drive RAM (not on the platter) at any moment.
const DefaultCacheDepth = 32

// DirtyPage is one dirty page-cache page the block layer may flush on its
// own after a kernel crash — an "orphan" no surviving kernel owns.
type DirtyPage struct {
	Path string
	Off  int64
	Data []byte
}

// CrashReport summarizes what the crash model did at one kernel failure,
// for attributions, trace events and the disk_crash_* metrics.
type CrashReport struct {
	// Fired is true once CrashNow has run for this failure.
	Fired bool
	// RolledBack counts acked writes the volatile cache lost, and
	// RolledBackBytes their payload.
	RolledBack      int
	RolledBackBytes int64
	// Torn is true when the newest surviving write was cut mid-sector;
	// TornPath/TornOff locate the write and TearPoint is how many of its
	// bytes reached the platter.
	Torn      bool
	TornPath  string
	TornOff   int64
	TearPoint int
	// OrphanTotal counts the dirty pages handed to OrphanFlush;
	// OrphanFlushed of them reached the platter (in seeded order), for
	// OrphanBytes total. OrphanTorn marks a partially-written orphan.
	OrphanTotal   int
	OrphanFlushed int
	OrphanBytes   int64
	OrphanTorn    bool
	// Err records a substrate failure while applying crash effects (the
	// shared FS refusing a write); empty on clean firings.
	Err string
}

// Note renders a short attribution string for trace events.
func (r CrashReport) Note() string {
	return fmt.Sprintf("rollback=%d torn=%v orphans=%d/%d",
		r.RolledBack, r.Torn, r.OrphanFlushed, r.OrphanTotal)
}

// CrashModel is the deterministic block-layer crash model beneath the page
// cache. The kernel routes every page-cache flush through Write, which
// applies the bytes to the platter immediately but remembers them in a
// bounded volatile write cache (an undo log) until a Barrier — the fsync
// path — makes them durable. At kernel-crash time CrashNow can roll the
// cache back (acked writes lost in drive RAM) and tear the in-flight write
// mid-sector; OrphanFlush then pushes dirty page-cache pages that no
// surviving kernel flushed to the platter in an undefined-but-seeded order.
//
// Every decision draws from the model's own seeded RNG, so a crash's disk
// consequences are a pure function of the experiment seed — replayable,
// and bit-identical at any campaign or resurrection worker width (the
// model runs only on the serial failure-handling path).
type CrashModel struct {
	fs  *fs.FlatFS
	rng *sim.RNG

	depth int
	// log holds the volatile writes, oldest first. Its backing array
	// lives as long as the model: aging, barriers and crashes retire
	// entries in place and clear them, so their preimages can be freed.
	log []logEntry
	// pre is the buffer each write's preimage is read into; only a
	// preimage with a non-zero byte is copied out of it.
	pre []byte

	armTear     bool
	armRollback bool
	armOrphan   bool

	report CrashReport
}

// logEntry is one un-barriered write: enough preimage to undo it exactly.
type logEntry struct {
	path   string
	off    int64
	length int
	// preimage is the prior contents of the overlapped range. An all-zero
	// one is a slice of zeroPage, shared and never written.
	preimage []byte
	// sizeBefore is the file length before the write; -1 means the write
	// created the file.
	sizeBefore int64
}

// NewCrashModel builds a model over the shared file system. depth <= 0
// selects DefaultCacheDepth.
func NewCrashModel(filesystem *fs.FlatFS, seed int64, depth int) *CrashModel {
	if depth <= 0 {
		depth = DefaultCacheDepth
	}
	return &CrashModel{fs: filesystem, rng: sim.NewRNG(seed), depth: depth}
}

// Arm schedules which crash classes fire at the next CrashNow/OrphanFlush.
// Arming is one-shot: CrashNow consumes tear and rollback, OrphanFlush
// consumes orphan.
func (m *CrashModel) Arm(tear, rollback, orphan bool) {
	m.armTear, m.armRollback, m.armOrphan = tear, rollback, orphan
}

// Report returns the accumulated crash report for the last failure.
func (m *CrashModel) Report() CrashReport { return m.report }

// PendingWrites reports the volatile (un-barriered) write count, for tests.
func (m *CrashModel) PendingWrites() int { return len(m.log) }

// Write applies one block write. The bytes land on the platter immediately
// (readers see them), but the write stays volatile — undoable by CrashNow —
// until a Barrier retires it or it ages out of the bounded cache.
func (m *CrashModel) Write(path string, off int64, data []byte) (int, error) {
	ent := logEntry{path: path, off: off, length: len(data), sizeBefore: -1}
	if size, err := m.fs.Size(path); err == nil {
		ent.sizeBefore = size
		if off < size {
			end := off + int64(len(data))
			if end > size {
				end = size
			}
			if end > off {
				pre, rerr := m.preimage(path, off, int(end-off))
				if rerr != nil {
					return 0, rerr
				}
				ent.preimage = pre
			}
		}
	}
	n, err := m.fs.WriteAt(path, off, data, true)
	if err != nil {
		return n, err
	}
	m.log = append(m.log, ent)
	if aged := len(m.log) - m.depth; aged > 0 {
		// The oldest write ages out of drive RAM onto the platter: durable.
		kept := copy(m.log, m.log[aged:])
		clear(m.log[kept:])
		m.log = m.log[:kept]
	}
	return n, nil
}

// zeroPage backs every all-zero preimage up to a page long. Nothing writes
// to it: undo and tear only pass preimages to the file store, which copies.
var zeroPage [phys.PageSize]byte

// preimage reads the n bytes at off into the model's buffer and returns
// them: a copy when they hold a non-zero byte, else shared zeros. A page
// cache fsync writes its newest page first, extending the file over a hole
// the next writes fill, so about half of the WAL's writes overwrite zeros.
func (m *CrashModel) preimage(path string, off int64, n int) ([]byte, error) {
	if cap(m.pre) < n {
		m.pre = make([]byte, n)
	}
	buf := m.pre[:n]
	if _, err := m.fs.ReadAt(path, off, buf); err != nil {
		return nil, err
	}
	if !phys.PageIsZero(buf) {
		return bytes.Clone(buf), nil
	}
	if n > len(zeroPage) {
		return make([]byte, n), nil
	}
	return zeroPage[:n:n], nil
}

// Barrier drains the volatile cache: everything written so far is durable.
// This is the block-layer half of fsync.
func (m *CrashModel) Barrier() {
	clear(m.log)
	m.log = m.log[:0]
}

// CrashNow applies the crash-time block-layer consequences: roll back a
// seeded number of the newest volatile writes (restoring their preimages,
// newest first, so the platter state is exactly some earlier prefix), then
// tear the newest surviving write at a seeded byte offset within one of its
// sectors. Arming is consumed; the volatile cache empties either way.
func (m *CrashModel) CrashNow() (CrashReport, error) {
	rep := CrashReport{Fired: true}
	log := m.log
	defer m.Barrier() // the log empties whatever the crash did
	if m.armRollback && len(log) > 0 {
		k := m.rng.Intn(len(log) + 1)
		for i := len(log) - 1; i >= len(log)-k; i-- {
			if err := m.undo(log[i]); err != nil {
				m.report = rep
				return rep, err
			}
			rep.RolledBack++
			rep.RolledBackBytes += int64(log[i].length)
		}
		log = log[:len(log)-k]
	}
	if m.armTear && len(log) > 0 {
		ent := log[len(log)-1]
		if ent.length > 0 {
			nsec := (ent.length + SectorSize - 1) / SectorSize
			si := m.rng.Intn(nsec)
			secLen := ent.length - si*SectorSize
			if secLen > SectorSize {
				secLen = SectorSize
			}
			tear := si*SectorSize + m.rng.Intn(secLen)
			if err := m.tear(ent, tear); err != nil {
				m.report = rep
				return rep, err
			}
			rep.Torn = true
			rep.TornPath = ent.path
			rep.TornOff = ent.off
			rep.TearPoint = tear
		}
	}
	m.armTear, m.armRollback = false, false
	m.report = rep
	return rep, nil
}

// undo reverts one volatile write. Correct only when applied newest-first:
// each entry's preimage and size were captured against the state its undo
// restores.
func (m *CrashModel) undo(ent logEntry) error {
	if ent.sizeBefore < 0 {
		// The write created the file; losing it leaves no trace.
		return m.fs.Remove(ent.path)
	}
	if len(ent.preimage) > 0 {
		if _, err := m.fs.WriteAt(ent.path, ent.off, ent.preimage, false); err != nil {
			return err
		}
	}
	if end := ent.off + int64(ent.length); end > ent.sizeBefore {
		cur, err := m.fs.Size(ent.path)
		if err != nil {
			return err
		}
		if cur > ent.sizeBefore {
			if err := m.fs.Truncate(ent.path, ent.sizeBefore); err != nil {
				return err
			}
		}
	}
	return nil
}

// tear keeps the first tearPoint bytes of the write and reverts the rest:
// preimage where the file previously had contents, truncation (or zeroes)
// where the write extended it.
func (m *CrashModel) tear(ent logEntry, tearPoint int) error {
	sizeBefore := ent.sizeBefore
	if sizeBefore < 0 {
		sizeBefore = 0
	}
	start := ent.off + int64(tearPoint)
	end := ent.off + int64(ent.length)
	if preEnd := ent.off + int64(len(ent.preimage)); start < preEnd {
		if _, err := m.fs.WriteAt(ent.path, start, ent.preimage[start-ent.off:], false); err != nil {
			return err
		}
	}
	if end > sizeBefore {
		keep := sizeBefore
		if start > keep {
			keep = start
		}
		cur, err := m.fs.Size(ent.path)
		if err != nil {
			return err
		}
		if cur == end && keep < cur {
			// The torn write is the file tail: the unwritten extension
			// simply never existed.
			if err := m.fs.Truncate(ent.path, keep); err != nil {
				return err
			}
		} else if keep < end {
			// Extension mid-file (a later durable write grew it further):
			// the unwritten sectors read back as zeroes.
			zero := make([]byte, end-keep)
			if _, err := m.fs.WriteAt(ent.path, keep, zero, false); err != nil {
				return err
			}
		}
	}
	return nil
}

// OrphanFlush models the drive draining dirty page-cache pages no surviving
// kernel flushed: a seeded permutation of the pages, a seeded completion
// count (power may cut the drain short), and possibly a torn in-flight
// page at the cut. Pages the caller already flushed through resurrection
// must not be passed in. The armed orphan class is consumed; unarmed, the
// pages are simply lost — the pre-model behavior.
func (m *CrashModel) OrphanFlush(pages []DirtyPage) (CrashReport, error) {
	rep := m.report
	rep.OrphanTotal += len(pages)
	if !m.armOrphan || len(pages) == 0 {
		m.armOrphan = false
		m.report = rep
		return rep, nil
	}
	m.armOrphan = false
	perm := m.rng.Perm(len(pages))
	done := m.rng.Intn(len(pages) + 1)
	for i := 0; i < done; i++ {
		pg := pages[perm[i]]
		if _, err := m.fs.WriteAt(pg.Path, pg.Off, pg.Data, true); err != nil {
			m.report = rep
			return rep, err
		}
		rep.OrphanFlushed++
		rep.OrphanBytes += int64(len(pg.Data))
	}
	if done < len(pages) {
		pg := pages[perm[done]]
		if len(pg.Data) > 0 && m.rng.Chance(0.5) {
			cut := m.rng.Intn(len(pg.Data))
			if cut > 0 {
				if _, err := m.fs.WriteAt(pg.Path, pg.Off, pg.Data[:cut], true); err != nil {
					m.report = rep
					return rep, err
				}
				rep.OrphanTorn = true
				rep.OrphanBytes += int64(cut)
			}
		}
	}
	m.report = rep
	return rep, nil
}
