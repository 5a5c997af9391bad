package resurrect

import (
	"slices"
	"testing"
)

// TestAdmissionOrder: a streamed pass admits by tier, most critical first,
// and by PID within a tier, whatever order discovery listed the candidates
// in. A tier outside [0, sched.NumTiers) is clamped, so -3 admits as tier 0
// and 9 as tier 2.
func TestAdmissionOrder(t *testing.T) {
	cfg := Config{Tiers: map[string]int{"db": 0, "crit": -3, "batch": 9}}
	selected := []Candidate{
		{PID: 7, Program: "sh"},
		{PID: 2, Program: "batch"},
		{PID: 9, Program: "db"},
		{PID: 4, Program: "crit"},
		{PID: 1, Program: "sh"},
		{PID: 3, Program: "db"},
	}
	adm, tiers := admissionOrder(cfg, selected)
	var pids []uint32
	for _, c := range adm {
		pids = append(pids, c.PID)
	}
	if want := []uint32{3, 4, 9, 1, 7, 2}; !slices.Equal(pids, want) {
		t.Errorf("admitted PIDs %v, want %v", pids, want)
	}
	if want := []int{0, 0, 0, 1, 1, 2}; !slices.Equal(tiers, want) {
		t.Errorf("admitted tiers %v, want %v", tiers, want)
	}
	if selected[0].PID != 7 || selected[5].PID != 3 {
		t.Errorf("admission reordered the caller's slice: %v", selected)
	}
}
