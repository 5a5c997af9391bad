package experiment

import "testing"

// TestScalingShape checks the Section 4 size argument: kernel data grows
// with footprint, page tables dominate increasingly, and the kernel-data /
// footprint ratio stays far below 1% (the paper's 0.13% bound).
func TestScalingShape(t *testing.T) {
	rows, err := MeasureScaling(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(ScaleSizes) {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].KernelKB <= rows[i-1].KernelKB {
			t.Fatalf("kernel data not monotone: %v", rows)
		}
		if rows[i].ResurrectionTime <= rows[i-1].ResurrectionTime {
			t.Fatalf("resurrection time not monotone: %v", rows)
		}
	}
	for _, r := range rows {
		if r.FractionOfFootprint > 0.01 {
			t.Fatalf("kernel data is %.3f%% of footprint, want < 1%%", 100*r.FractionOfFootprint)
		}
		if r.PageTableFraction < 0.5 {
			t.Fatalf("page tables only %.0f%%", 100*r.PageTableFraction)
		}
	}
	// The largest footprint's page-table share exceeds the smallest's,
	// mirroring Table 4's 60% -> 83% progression.
	if rows[len(rows)-1].PageTableFraction <= rows[0].PageTableFraction {
		t.Fatalf("page-table share not growing: %v", rows)
	}
}
