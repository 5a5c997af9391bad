package resurrect

import (
	"bytes"
	"fmt"
	"hash/crc32"
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
//     deduplicated through a content-hash cache: the first occurrence pays
//     the full CopyCost and becomes the canonical copy, every later hit
//     pays only DedupHitCost. Installs still fill *private* frames from
//     the canonical copy, so a page mutated by one resurrected process can
//     never leak into another candidate's address space.
//
// With the lazy install enabled (Engine.LazyInstall) the classification
// additionally decides, per candidate, whether the demand-paged path is
// safe: a read-only validation checks that every frame the candidate would
// speculate is an adoptable dead user frame no other speculation has
// claimed. Candidates that pass keep their non-zero resident pages
// speculated — mapped copy-on-access, CRC-stamped here so the first touch
// can validate the frame — while candidates that fail fall back to the
// eager classification above, with the refusal recorded as structured
// attribution (plan.fallbackReason → ProcReport.SpecFallback).
//
// Classification runs inside the serialized commit, in commit order, so
// which page is canonical, which frame is speculated — and therefore every
// charged duration and counter — is a pure function of the candidate
// order, never of the scan pool's width or timing. The scan decides
// zero-ness where it reads each frame but defers the resident-copy
// bandwidth charge, and the elision counts, to this step (see scanPages);
// byte *accounting* stays with the scan's reads.

// pageHash is FNV-1a over the page contents: fast, deterministic and good
// enough to make collisions (which are then caught by bytes.Equal and
// treated as ordinary copies) a non-event.
func pageHash(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

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
// cache's canonical copies and the dead frames already promised to an
// earlier candidate's speculation (two page tables referencing one frame
// — COW sharing — cannot both adopt it, so the later candidate falls
// back). The pass shares one ctx across its commits, which run in strict
// commit order, so which copy is canonical stays a pure function of the
// candidate order at any worker width.
type classifyCtx struct {
	cost     sim.CostModel
	cache    map[uint64][]byte
	proposed map[int]bool
}

func (e *Engine) newClassifyCtx() *classifyCtx {
	return &classifyCtx{
		cost:     e.K.Cost(),
		cache:    make(map[uint64][]byte),
		proposed: make(map[int]bool),
	}
}

// classifyPlan mutates one plan's resident pages in place — marking
// zero-elided, deduplicated or (lazy install) speculated pages — and
// charges the deferred page-copy time to the plan's PhasePageCopy duration
// and scanDur.
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
		if pg.swapped || pg.zero {
			continue
		}
		switch {
		case pg.frame < 0 || pg.frame >= e.K.M.Mem.NumFrames():
			return fmt.Sprintf("frame-validation: page %#x references frame %d beyond memory", pg.va, pg.frame)
		case proposed[pg.frame]:
			return fmt.Sprintf("frame-validation: page %#x frame %d already speculated by an earlier candidate", pg.va, pg.frame)
		case e.K.M.Mem.Kind(pg.frame) != phys.FrameUser:
			return fmt.Sprintf("frame-validation: page %#x frame %d is %v, not a dead user frame",
				pg.va, pg.frame, e.K.M.Mem.Kind(pg.frame))
		case !e.K.Alloc.CanAdopt(pg.frame):
			return fmt.Sprintf("frame-validation: page %#x frame %d already managed by the crash kernel", pg.va, pg.frame)
		}
		mine = append(mine, pg.frame)
	}
	for _, f := range mine {
		proposed[f] = true
	}
	return ""
}

// classifyEager is the full-copy classification: zero elision plus
// cross-candidate dedup, charging CopyCost / DedupHitCost / ZeroFillCost per
// page and recording each elided or deduplicated page's copy bytes avoided.
func (e *Engine) classifyEager(pl *plan, cost sim.CostModel, cache map[uint64][]byte) {
	var dur time.Duration
	for idx := range pl.pages {
		pg := &pl.pages[idx]
		if pg.swapped {
			continue
		}
		if pg.zero {
			pg.saved = pageLiveBytes(pl.regions, pg.va)
			dur += cost.ZeroFillCost
			continue
		}
		h := pageHash(pg.data)
		if canon, ok := cache[h]; ok {
			if bytes.Equal(canon, pg.data) {
				pg.data = canon
				pg.deduped = true
				pg.saved = pageLiveBytes(pl.regions, pg.va)
				dur += cost.DedupHitCost
				continue
			}
			// Hash collision: treat as an ordinary copy; the first
			// occupant keeps the cache slot.
			dur += cost.CopyCost(int64(len(pg.data)))
			continue
		}
		cache[h] = pg.data
		dur += cost.CopyCost(int64(len(pg.data)))
	}
	pl.chargePageCopy(dur)
}

// classifyLazy is the demand-paged classification: all-zero pages still
// elide (a zero-filled frame is cheaper than any mapping), every other
// resident page is speculated — the install maps the dead frame
// copy-on-access and pays only SpecMapCost now, while the CRC stamped here
// lets the first touch detect a frame that changed after the scan. The
// scan-time copy is kept as the shadow the fallback installs, so a corrupt
// speculation degrades to exactly the eager result. Lazy candidates never
// enter the dedup cache: their frames stay shared-by-mapping until
// resolution copies them out.
func (e *Engine) classifyLazy(pl *plan, cost sim.CostModel) {
	var dur time.Duration
	for idx := range pl.pages {
		pg := &pl.pages[idx]
		if pg.swapped {
			continue
		}
		if pg.zero {
			pg.saved = pageLiveBytes(pl.regions, pg.va)
			dur += cost.ZeroFillCost
			continue
		}
		pg.speculated = true
		pg.crc = crc32.Checksum(pg.data, layout.CRCTable)
		dur += cost.SpecMapCost
	}
	pl.chargePageCopy(dur)
}

// chargePageCopy adds the classification's deferred page-install time to the
// plan's PhasePageCopy duration and total scan time.
func (pl *plan) chargePageCopy(dur time.Duration) {
	ps := pl.phase[PhasePageCopy]
	ps.dur += dur
	pl.phase[PhasePageCopy] = ps
	pl.scanDur += dur
}
