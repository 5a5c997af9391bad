package resurrect

import (
	"sort"
	"strconv"

	"otherworld/internal/metrics"
	"otherworld/internal/phys"
	"otherworld/internal/sched"
)

// pageBytes is the page size as an int64 for counter arithmetic.
const pageBytes = int64(phys.PageSize)

// Histogram bounds for the resurrection metrics. Durations are virtual
// nanoseconds in decade buckets (1µs .. 10s); byte sizes follow the data
// shapes the scan actually moves (a page, a small heap, big app images).
var (
	phaseDurBounds  = []int64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10}
	phaseByteBounds = []int64{4 << 10, 64 << 10, 1 << 20, 16 << 20, 64 << 20, 256 << 20}
)

// publish records a finished pass into the engine's registry. Everything
// observed here is worker-count-independent by construction — it is all
// derived from the Report's fingerprinted fields (Procs, Timeline,
// PerCandidate, Acct), never from the goroutine pool — so the snapshot
// stays bit-identical at any pool width.
//
// This is the ledger's seal point: after it runs, the sealed accounting
// (Engine.acct, Report.Acct) is part of the published fingerprint and must
// not be written again (owvet sealedacct).
//
//owvet:seal
func (e *Engine) publish(rep *Report) {
	reg := e.Metrics
	if reg == nil {
		return
	}
	reg.Counter("resurrect_runs_total", "resurrection passes executed", nil).Inc()
	var elided, deduped, speculated, saved, extents, flushedPages int64
	for _, p := range rep.Procs {
		elided += int64(p.PagesElided)
		deduped += int64(p.PagesDeduped)
		speculated += int64(p.PagesSpeculated)
		saved += p.SavedBytes
		extents += int64(p.FlushExtents)
		flushedPages += int64(p.DirtyFlushed)
		if p.SpecFallback != "" {
			reg.Counter("resurrect_spec_fallbacks_total",
				"candidates whose speculation was abandoned for the eager copy",
				metrics.Labels{"stage": "install"}).Inc()
		}
		reg.Counter("resurrect_candidates_total", "candidates by final outcome",
			metrics.Labels{"outcome": p.Outcome.String()}).Inc()
		for _, st := range p.Timeline {
			l := metrics.Labels{"phase": st.Phase.String()}
			reg.Histogram("resurrect_phase_ns", "virtual time per resurrection phase",
				phaseDurBounds, l).Observe(int64(st.Duration))
			reg.Histogram("resurrect_phase_bytes", "dead-kernel bytes read per resurrection phase",
				phaseByteBounds, l).Observe(st.Bytes)
			if st.Err != "" {
				reg.Counter("resurrect_phase_errors_total", "phases that recorded an error",
					l).Inc()
			}
		}
	}
	for _, d := range rep.PerCandidate {
		reg.Histogram("resurrect_candidate_ns", "per-candidate scan+install virtual time",
			phaseDurBounds, nil).Observe(int64(d))
	}
	cats := make([]string, 0, len(rep.Acct.ByCategory))
	for cat := range rep.Acct.ByCategory {
		cats = append(cats, cat)
	}
	sort.Strings(cats)
	for _, cat := range cats {
		reg.Counter("resurrect_read_bytes_total", "dead-kernel bytes read, by Table 4 category",
			metrics.Labels{"category": cat}).Add(rep.Acct.ByCategory[cat])
	}
	reg.Counter("resurrect_pages_elided_total",
		"all-zero pages installed by zero-fill instead of copy", nil).Add(elided)
	reg.Counter("resurrect_pages_deduped_total",
		"pages filled from the dedup cache's canonical copy", nil).Add(deduped)
	reg.Counter("resurrect_pages_speculated_total",
		"pages the lazy install mapped copy-on-access instead of copying", nil).Add(speculated)
	// The saved-bytes counter adds the *actual* copy volume avoided, summed
	// from the per-page region coverage the classification computed — not
	// (elided+deduped)*PageSize, which overcounted the partial tail page of
	// every non-page-multiple region.
	reg.Counter("resurrect_fastpath_saved_bytes_total",
		"install-phase copy bytes avoided by zero elision and dedup", nil).
		Add(saved)
	reg.Counter("resurrect_flush_pages_total",
		"dirty page-cache pages flushed through the write-combining queue", nil).Add(flushedPages)
	reg.Counter("resurrect_flush_extents_total",
		"block-sorted extents the write-combining queue issued (one seek each)", nil).Add(extents)
	reg.Gauge("resurrect_pagetable_fraction",
		"page-table share of main-kernel data read (Table 4)", nil).Set(rep.Acct.PageTableFraction())
	// Index-assisted discovery and streaming admission, both derived only
	// from fingerprinted report fields so the snapshot stays width-stable.
	if rep.IndexUsed > 0 || rep.IndexSkipped > 0 || rep.IndexFallback != "" {
		reg.Counter("resurrect_index_entries_total",
			"candidates discovered from the salvaged index", nil).Add(int64(rep.IndexUsed))
		reg.Counter("resurrect_index_skipped_total",
			"index slots skipped as corrupt or stale (skip-and-count)", nil).Add(int64(rep.IndexSkipped))
		if rep.IndexFallback != "" {
			reg.Counter("resurrect_index_fallbacks_total",
				"discovery passes that fell back to the full process-list walk", nil).Inc()
		}
	}
	if rep.Streamed {
		var admitted [sched.NumTiers]int64
		for _, t := range rep.Tiers {
			admitted[sched.ClampTier(t)]++
		}
		for t := 0; t < sched.NumTiers; t++ {
			if admitted[t] == 0 {
				continue
			}
			l := metrics.Labels{"tier": strconv.Itoa(t)}
			reg.Counter("resurrect_admit_total",
				"candidates admitted to the streaming pass, by SLO tier", l).Add(admitted[t])
			if d, ok := rep.TierFirstResumeAt(CanonicalWorkers, t); ok {
				reg.Gauge("resurrect_admit_first_resume_ns",
					"modeled time-to-first-resume per tier at the canonical width", l).Set(float64(d))
			}
		}
	}
}
