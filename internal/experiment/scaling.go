package experiment

import (
	"fmt"
	"strings"
	"time"

	"otherworld/internal/core"
	"otherworld/internal/kernel"
	"otherworld/internal/layout"
	"otherworld/internal/phys"
	"otherworld/internal/resurrect"
)

// Footprint scaling: the paper's Section 4 argument quantified — the data
// the crash kernel must read grows with the process footprint but stays a
// vanishing fraction of the address space ("even for an application with
// the largest possible memory footprint on a 32-bit system — 3 GB, the
// amount of data retrieved will be approximately 5 MB ... less than 0.13%").

// scaleProg touches a configurable number of pages.
type scaleProg struct{ pages int }

const scaleVA = 0x1000000

func (s scaleProg) Boot(env *kernel.Env) error {
	if err := env.MapAnon(scaleVA, uint64(s.pages)*phys.PageSize, layout.ProtRead|layout.ProtWrite); err != nil {
		return err
	}
	for i := 0; i < s.pages; i++ {
		if err := env.WriteU64(scaleVA+uint64(i)*phys.PageSize, uint64(i)); err != nil {
			return err
		}
	}
	return nil
}

func (s scaleProg) Step(env *kernel.Env) error { return kernel.ErrYield }

// ScaleSizes are the footprints swept, in pages.
var ScaleSizes = []int{256, 1024, 4096, 16384}

func init() {
	for _, pages := range ScaleSizes {
		p := pages
		kernel.RegisterProgram(fmt.Sprintf("scale-%d", p), func() kernel.Program { return scaleProg{pages: p} })
	}
}

// ScalingRow is one footprint's resurrection accounting.
type ScalingRow struct {
	// FootprintMB is the resident application size.
	FootprintMB float64
	// KernelKB is the main-kernel data the crash kernel read.
	KernelKB float64
	// PageTableFraction of KernelKB.
	PageTableFraction float64
	// FractionOfFootprint is kernel data over footprint — the paper's
	// wild-write exposure metric.
	FractionOfFootprint float64
	// ResurrectionTime is the virtual time the pass took.
	ResurrectionTime time.Duration
}

// MeasureScaling resurrects one process per footprint and reports how the
// crash kernel's read set grows.
func MeasureScaling(seed int64) ([]ScalingRow, error) {
	rows := make([]ScalingRow, 0, len(ScaleSizes))
	for _, pages := range ScaleSizes {
		opts := core.DefaultOptions()
		opts.HW.MemoryBytes = 512 << 20
		opts.Seed = seed
		m, err := core.NewMachine(opts)
		if err != nil {
			return nil, err
		}
		if _, err := m.Start("scale", fmt.Sprintf("scale-%d", pages)); err != nil {
			return nil, err
		}
		out, err := crashAndRecover(m, "scaling")
		if err != nil {
			return nil, err
		}
		pr := out.Report.Procs[0]
		if pr.Outcome != resurrect.OutcomeContinued {
			return nil, fmt.Errorf("footprint %d pages: %v (%v)", pages, pr.Outcome, pr.Err)
		}
		acct := out.Report.Acct
		footprint := float64(pages) * phys.PageSize
		rows = append(rows, ScalingRow{
			FootprintMB:         footprint / (1 << 20),
			KernelKB:            float64(acct.KernelDataBytes()) / 1024,
			PageTableFraction:   acct.PageTableFraction(),
			FractionOfFootprint: float64(acct.KernelDataBytes()) / footprint,
			ResurrectionTime:    out.Report.Duration,
		})
	}
	return rows, nil
}

// RenderScaling formats the sweep.
func RenderScaling(rows []ScalingRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %12s %13s %22s %14s\n",
		"Footprint", "Kernel data", "Page tables", "Kernel data/footprint", "Resurrection")
	for _, r := range rows {
		fmt.Fprintf(&b, "%11.0f MB %9.0f KB %12.0f%% %21.3f%% %13.0fms\n",
			r.FootprintMB, r.KernelKB, 100*r.PageTableFraction,
			100*r.FractionOfFootprint, float64(r.ResurrectionTime.Milliseconds()))
	}
	return b.String()
}
