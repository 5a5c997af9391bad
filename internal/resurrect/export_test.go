package resurrect

import "otherworld/internal/phys"

// ScanProbe scans a dead kernel's candidates the way one of runPass's
// workers does, for tests and benchmarks outside the package. It never
// installs anything, so it may run over the dead kernel itself, and it
// stages what an eager pass's scan stages: frames of the dead kernel's
// crash region and its free frames, the set a crash kernel's allocator
// manages.
type ScanProbe struct {
	e  *Engine
	sc *scanner
}

// NewScanProbe resolves the dead kernel's swap partition as Run does.
func NewScanProbe(e *Engine) *ScanProbe {
	sc := e.newScanner(nil)
	if name, _ := e.MainSwapDevice(); name != "" {
		sc.mainSwap, _ = e.K.M.Bus.Open(name)
	}
	sc.alloc = phys.NewFrameAllocator(e.K.M.Mem, e.K.P.CrashRegion)
	sc.alloc.AddFreeFrames(phys.Region{Start: 0, Frames: e.K.M.Mem.NumFrames()})
	return &ScanProbe{e: e, sc: sc}
}

// Scan runs scanOne for cand over a fresh accounting shard and Mem view.
func (p *ScanProbe) Scan(cand Candidate) ScannedPlan {
	return ScannedPlan{p.sc.scanOne(cand, &Accounting{ByCategory: make(map[string]int64)}, p.e.K.M.Mem.View())}
}

// ScannedPlan is one scanned candidate's plan, before classification.
type ScannedPlan struct{ pl *plan }

// ScannedPage is one page of a plan: its dead frame, the scan's zero mark,
// the copy the plan keeps (nil when the commit copies the dead frame) and
// the scan's CRC of its bytes.
type ScannedPage struct {
	VA      uint64
	Frame   int
	Swapped bool
	Zero    bool
	Data    []byte
	CRC     uint32
}

// Err returns the scan's first fatal error, if any.
func (s ScannedPlan) Err() error {
	for _, err := range []error{s.pl.parseErr, s.pl.regionsErr, s.pl.pagesErr, s.pl.shmErr} {
		if err != nil {
			return err
		}
	}
	return nil
}

// Pages returns the plan's pages in page-table order.
func (s ScannedPlan) Pages() []ScannedPage {
	out := make([]ScannedPage, len(s.pl.pages))
	for i, pg := range s.pl.pages {
		out[i] = ScannedPage{VA: pg.va, Frame: int(pg.frame), Swapped: pg.kind == pageSwapped,
			Zero: pg.kind == pageZero, CRC: pg.crc}
		if pg.data != nil {
			out[i].Data = pg.data[:]
		}
	}
	return out
}

// ShmFrames returns each segment's dead frames and the per-frame copies the
// plan keeps (nil when the plan keeps none of the segment's frames, and a
// nil entry for a frame the commit copies from dead memory).
func (s ScannedPlan) ShmFrames() (frames [][]uint64, kept [][][]byte) {
	for _, sp := range s.pl.shm {
		frames = append(frames, sp.seg.Frames)
		kept = append(kept, sp.kept)
	}
	return frames, kept
}
