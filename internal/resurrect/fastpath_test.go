package resurrect_test

import (
	"bytes"
	"testing"

	"otherworld/internal/core"
	"otherworld/internal/kernel"
	"otherworld/internal/layout"
	"otherworld/internal/phys"
	"otherworld/internal/resurrect"
)

// fpProg lays out one page of each fast-path class:
//
//	page 0: a pattern shared byte-for-byte across every fpProg process —
//	        the cross-process dedup candidate;
//	page 1: written all-zero — the zero-elision candidate;
//	page 2: zero except its very last byte (tagged with the PID so it is
//	        unique per process) — the boundary page that must NOT be
//	        elided or deduplicated.
type fpProg struct{}

const fpVA = 0x80000

func fpSharedPattern() []byte {
	shared := make([]byte, phys.PageSize)
	for i := range shared {
		shared[i] = byte(i%251) + 1
	}
	return shared
}

func (fpProg) Boot(env *kernel.Env) error {
	if err := env.MapAnon(fpVA, 3*phys.PageSize, layout.ProtRead|layout.ProtWrite); err != nil {
		return err
	}
	if err := env.Write(fpVA, fpSharedPattern()); err != nil {
		return err
	}
	if err := env.Write(fpVA+phys.PageSize, make([]byte, phys.PageSize)); err != nil {
		return err
	}
	return env.Write(fpVA+3*phys.PageSize-1, []byte{0x80 | byte(env.PID())})
}

func (fpProg) Step(env *kernel.Env) error {
	env.Compute(10)
	return nil
}

func init() {
	kernel.RegisterProgram("fp-prog", func() kernel.Program { return fpProg{} })
}

func fpMachine(t *testing.T) (*core.Machine, *core.FailureOutcome) {
	t.Helper()
	m := newMachine(t)
	if _, err := m.Start("fp-a", "fp-prog"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Start("fp-b", "fp-prog"); err != nil {
		t.Fatal(err)
	}
	m.Run(20)
	if err := m.K.InjectOops("fastpath"); err == nil {
		t.Fatal("InjectOops returned nil")
	}
	out, err := m.HandleFailure()
	if err != nil {
		t.Fatalf("HandleFailure: %v", err)
	}
	if out.Result != core.ResultRecovered {
		t.Fatalf("transfer failed: %s", out.Transfer.Reason)
	}
	if len(out.Report.Procs) != 2 {
		t.Fatalf("resurrected %d procs, want 2", len(out.Report.Procs))
	}
	return m, out
}

// TestFastPathCounters pins exactly which pages the classifier touches: the
// zero page elides in both processes, the shared page dedups only in the
// second (the first holds the canonical copy), and the boundary page — all
// zero but for one byte — is neither elided nor deduplicated.
func TestFastPathCounters(t *testing.T) {
	_, out := fpMachine(t)
	a, b := out.Report.Procs[0], out.Report.Procs[1]
	if a.Outcome != resurrect.OutcomeContinued || b.Outcome != resurrect.OutcomeContinued {
		t.Fatalf("outcomes = %v/%v (errs %v/%v)", a.Outcome, b.Outcome, a.Err, b.Err)
	}
	if a.PagesCopied != 3 || b.PagesCopied != 3 {
		t.Fatalf("copied = %d/%d, want 3/3", a.PagesCopied, b.PagesCopied)
	}
	if a.PagesElided != 1 || b.PagesElided != 1 {
		t.Fatalf("elided = %d/%d, want 1/1 (only the all-zero page)", a.PagesElided, b.PagesElided)
	}
	if a.PagesDeduped != 0 || b.PagesDeduped != 1 {
		t.Fatalf("deduped = %d/%d, want 0/1 (first copy is canonical)", a.PagesDeduped, b.PagesDeduped)
	}
}

// TestFastPathDedupIsolation is the safety property behind the dedup cache:
// dedup hits must fill private frames, so mutating a deduplicated page in
// one resurrected process can never leak into the other candidate.
func TestFastPathDedupIsolation(t *testing.T) {
	m, out := fpMachine(t)
	pa := m.K.Lookup(out.Report.Procs[0].NewPID)
	pb := m.K.Lookup(out.Report.Procs[1].NewPID)
	if pa == nil || pb == nil {
		t.Fatal("resurrected processes not found in the new kernel")
	}
	want := fpSharedPattern()
	got := make([]byte, phys.PageSize)
	for _, p := range []*kernel.Process{pa, pb} {
		if err := m.K.ReadVM(p, fpVA, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("pid %d: shared page corrupted after resurrection", p.PID)
		}
	}
	// Mutate the deduplicated page in the first process...
	if err := m.K.WriteVM(pa, fpVA, []byte("divergence")); err != nil {
		t.Fatal(err)
	}
	// ...and the second process must still see the original bytes.
	if err := m.K.ReadVM(pb, fpVA, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("mutation in one candidate leaked into another's dedup'd page")
	}
}

// TestFastPathZeroAndBoundaryPages checks the installed contents page by
// page: the elided page reads back as zeros, and the boundary page keeps its
// single non-zero tail byte — a false elision would zero it.
func TestFastPathZeroAndBoundaryPages(t *testing.T) {
	m, out := fpMachine(t)
	zeros := make([]byte, phys.PageSize)
	got := make([]byte, phys.PageSize)
	for _, pr := range out.Report.Procs {
		np := m.K.Lookup(pr.NewPID)
		if np == nil {
			t.Fatalf("pid %d not found", pr.NewPID)
		}
		if err := m.K.ReadVM(np, fpVA+phys.PageSize, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, zeros) {
			t.Fatalf("pid %d: elided page not zero-filled", np.PID)
		}
		if err := m.K.ReadVM(np, fpVA+2*phys.PageSize, got); err != nil {
			t.Fatal(err)
		}
		wantTail := byte(0x80 | byte(pr.Candidate.PID))
		if got[phys.PageSize-1] != wantTail {
			t.Fatalf("pid %d: boundary page tail = %#x, want %#x (elision must not fire on a partially-zero page)",
				np.PID, got[phys.PageSize-1], wantTail)
		}
		if !bytes.Equal(got[:phys.PageSize-1], zeros[:phys.PageSize-1]) {
			t.Fatalf("pid %d: boundary page body not zero", np.PID)
		}
	}
}
