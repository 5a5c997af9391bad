package resurrect

import "otherworld/internal/disk"

// ScanProbe scans a dead kernel's candidates the way one of runPass's
// workers does, for tests and benchmarks outside the package. It never
// installs anything, so it may run over the dead kernel itself.
type ScanProbe struct {
	e    *Engine
	swap *disk.BlockDevice
}

// NewScanProbe resolves the dead kernel's swap partition as Run does.
func NewScanProbe(e *Engine) *ScanProbe {
	p := &ScanProbe{e: e}
	if name, _ := e.MainSwapDevice(); name != "" {
		p.swap, _ = e.K.M.Bus.Open(name)
	}
	return p
}

// Scan runs scanOne for cand over a fresh accounting shard and Mem view.
func (p *ScanProbe) Scan(cand Candidate) ScannedPlan {
	sc := p.e.newScanner(&Accounting{ByCategory: make(map[string]int64)}, p.e.K.M.Mem.View(), p.swap)
	return ScannedPlan{sc.scanOne(cand)}
}

// ScannedPlan is one scanned candidate's plan, before classification.
type ScannedPlan struct{ pl *plan }

// ScannedPage is one page of a plan: its dead frame, the scan's zero mark
// and the copy the plan keeps.
type ScannedPage struct {
	VA      uint64
	Frame   int
	Swapped bool
	Zero    bool
	Data    []byte
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
		out[i] = ScannedPage{VA: pg.va, Frame: pg.frame, Swapped: pg.swapped,
			Zero: pg.zero, Data: pg.data}
	}
	return out
}

// ShmFrames returns each segment's dead frames and the per-frame copies the
// plan keeps (nil for an all-zero frame).
func (s ScannedPlan) ShmFrames() (frames [][]uint64, kept [][][]byte) {
	for _, sp := range s.pl.shm {
		frames = append(frames, sp.seg.Frames)
		kept = append(kept, sp.frames)
	}
	return frames, kept
}
