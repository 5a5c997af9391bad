package resurrect

import (
	"bytes"
	"fmt"
	"time"

	"otherworld/internal/layout"
	"otherworld/internal/phys"
	"otherworld/internal/sim"
)

// The install-phase memory fast path, run as each candidate's commit
// classifies its scanned plan just before installing it:
//
//   - all-zero pages are elided: the scan, which reads every frame, marks
//     them zero and keeps no copy, and instead of copying 4 KB out of the
//     dead kernel the install maps a freshly zero-filled frame
//     (kernel.InstallResidentPage with no data) and pays ZeroFillCost;
//   - identical page contents shared across candidates (shared libraries,
//     COW children — the 8×MySQL workload is dominated by these) are
//     deduplicated through a cache keyed by the CRC32C the scan took over
//     each page: the first occurrence pays the full CopyCost and becomes the
//     canonical page, every later hit pays only DedupHitCost. A hit is
//     confirmed byte for byte, re-reading from its dead frame each side the
//     plans do not hold (Engine.deadFrame), so a CRC collision degrades
//     to an ordinary copy. Installs still fill *private* frames, so a page
//     mutated by one resurrected process can never leak into another
//     candidate's address space.
//
// With the lazy install enabled (Engine.LazyInstall) the classification
// additionally decides, per candidate, whether the demand-paged path is
// safe: a read-only validation checks that every frame the candidate would
// speculate is an adoptable dead user frame no other speculation has
// claimed. Candidates that pass keep their non-zero resident pages
// speculated — mapped copy-on-access, CRC-stamped when the install
// registers them so the first touch can validate the frame — while
// candidates that fail fall back to the eager classification above, with
// the refusal recorded as structured attribution (plan.fallbackReason →
// ProcReport.SpecFallback).
//
// Classification runs inside the serialized commit, in commit order, so
// which page is canonical, which frame is speculated — and therefore every
// charged duration and counter — is a pure function of the candidate
// order, never of the scan pool's width or timing. The scan decides
// zero-ness and takes the CRC where it reads each frame but defers the
// resident-copy bandwidth charge, and the elision counts, to this step (see
// scanPages); byte *accounting* stays with the scan's reads.

// pageLiveBytes returns how many bytes of the page at va the candidate's
// regions actually cover — the real copy volume a zero elision or dedup hit
// avoids. An elided tail page of a non-page-multiple region saves only the
// region's live tail, not a frame-sized 4 KB. A page outside every region
// conservatively counts the full page: its copy really moves 4 KB.
func pageLiveBytes(regions []layout.MemRegion, va uint64) int64 {
	end := va
	for _, r := range regions {
		if va >= r.Start && va < r.End && r.End > end {
			end = r.End
		}
	}
	if end == va {
		return pageBytes
	}
	if limit := va + phys.PageSize; end > limit {
		end = limit
	}
	return int64(end - va)
}

// classifyCtx is the cross-candidate classification state: the dedup
// cache's canonical pages and the dead frames already promised to an
// earlier candidate's speculation (two page tables referencing one frame
// — COW sharing — cannot both adopt it, so the later candidate falls
// back). The pass shares one ctx across its commits, which run in strict
// commit order, so which page is canonical stays a pure function of the
// candidate order at any worker width.
type classifyCtx struct {
	cost     sim.CostModel
	cache    map[uint32]canonPage
	proposed map[int]bool
}

// canonPage is the dedup cache's canonical page for one CRC: the bytes its
// plan held, or nil and the dead frame that holds them.
type canonPage struct {
	data  *[phys.PageSize]byte
	frame int32
}

func (e *Engine) newClassifyCtx() *classifyCtx {
	return &classifyCtx{
		cost:     e.K.Cost(),
		cache:    make(map[uint32]canonPage),
		proposed: make(map[int]bool),
	}
}

// classifyPlan mutates one plan's resident pages in place — marking
// deduplicated or (lazy install) speculated pages — and charges the
// deferred page-copy time to the plan's PhasePageCopy duration and scanDur.
func (e *Engine) classifyPlan(pl *plan, ctx *classifyCtx) {
	if e.LazyInstall {
		if reason := e.vetSpeculation(pl, ctx.proposed); reason == "" {
			pl.lazy = true
		} else {
			pl.fallbackReason = reason
		}
	}
	if pl.lazy {
		e.classifyLazy(pl, ctx.cost)
	} else {
		e.classifyEager(pl, ctx.cost, ctx.cache)
	}
}

// vetSpeculation is the lazy install's read-only safety check: it returns ""
// when every frame the candidate would speculate is inside physical memory,
// not yet promised to an earlier speculation, still tagged as a dead user
// frame and adoptable by the crash kernel's allocator — and records the
// passing frames in proposed. The proposed check comes before the tag and
// adopt checks: by the time a candidate commits, an earlier candidate's
// install has already adopted the frames it speculated, and the refusal
// must still name the earlier speculation. Any scan-side error also refuses
// speculation, so a failing candidate replays the eager engine's exact
// branching.
func (e *Engine) vetSpeculation(pl *plan, proposed map[int]bool) string {
	if pl.parseErr != nil || pl.regionsErr != nil || pl.pagesErr != nil ||
		pl.shmErr != nil || (pl.filesErr != nil && !layout.IsCorruption(pl.filesErr)) {
		return "frame-validation: scan recorded a fatal error; installing eagerly"
	}
	var mine []int
	for idx := range pl.pages {
		pg := &pl.pages[idx]
		if pg.kind != pageCopy {
			continue
		}
		f := int(pg.frame)
		switch {
		case f < 0 || f >= e.K.M.Mem.NumFrames():
			return fmt.Sprintf("frame-validation: page %#x references frame %d beyond memory", pg.va, f)
		case proposed[f]:
			return fmt.Sprintf("frame-validation: page %#x frame %d already speculated by an earlier candidate", pg.va, f)
		case e.K.M.Mem.Kind(f) != phys.FrameUser:
			return fmt.Sprintf("frame-validation: page %#x frame %d is %v, not a dead user frame",
				pg.va, f, e.K.M.Mem.Kind(f))
		case !e.K.Alloc.CanAdopt(f):
			return fmt.Sprintf("frame-validation: page %#x frame %d already managed by the crash kernel", pg.va, f)
		}
		mine = append(mine, f)
	}
	for _, f := range mine {
		proposed[f] = true
	}
	return ""
}

// classifyEager is the full-copy classification: zero elision plus
// cross-candidate dedup, charging CopyCost / DedupHitCost / ZeroFillCost per
// page.
func (e *Engine) classifyEager(pl *plan, cost sim.CostModel, cache map[uint32]canonPage) {
	var dur time.Duration
	for idx := range pl.pages {
		pg := &pl.pages[idx]
		switch pg.kind {
		case pageZero:
			dur += cost.ZeroFillCost
			continue
		case pageSwapped:
			continue
		}
		canon, ok := cache[pg.crc]
		switch {
		case !ok:
			cache[pg.crc] = canonPage{data: pg.data, frame: pg.frame}
		case e.samePage(canon, pg):
			pg.kind = pageDeduped
			dur += cost.DedupHitCost
			continue
		}
		// A first occurrence, or a CRC collision, which is an ordinary
		// copy: the first occupant keeps the cache slot.
		dur += cost.CopyCost(pageBytes)
	}
	pl.chargePageCopy(dur)
}

// samePage reports whether pg's bytes equal the canonical page's. Two
// plans naming one dead frame hold the same bytes; otherwise each side the
// plans do not hold is re-read from its dead frame.
func (e *Engine) samePage(canon canonPage, pg *pagePlan) bool {
	if canon.data == nil && pg.data == nil && canon.frame == pg.frame {
		return true
	}
	a, err := e.pageData(canon.data, canon.frame, 1)
	if err != nil {
		return false
	}
	b, err := e.pageData(pg.data, pg.frame, 0)
	return err == nil && bytes.Equal(a, b)
}

// classifyLazy is the demand-paged classification: all-zero pages still
// elide (a zero-filled frame is cheaper than any mapping), every other
// resident page is speculated — the install maps the dead frame
// copy-on-access and pays only SpecMapCost now. The scan staged every page
// of a lazy pass, and that copy is the shadow the fallback installs, so a
// corrupt speculation degrades to exactly the eager result. Lazy candidates
// never enter the dedup cache: their frames stay shared-by-mapping until
// resolution copies them out.
func (e *Engine) classifyLazy(pl *plan, cost sim.CostModel) {
	var dur time.Duration
	for idx := range pl.pages {
		pg := &pl.pages[idx]
		switch pg.kind {
		case pageZero:
			dur += cost.ZeroFillCost
		case pageCopy:
			pg.kind = pageSpeculated
			dur += cost.SpecMapCost
		}
	}
	pl.chargePageCopy(dur)
}

// chargePageCopy adds the classification's deferred page-install time to the
// plan's PhasePageCopy duration and total scan time.
func (pl *plan) chargePageCopy(dur time.Duration) {
	pl.phase[PhasePageCopy].dur += dur
	pl.scanDur += dur
}
