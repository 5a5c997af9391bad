package kernel

import (
	"sort"
	"testing"
	"time"
)

func TestProgramRegistryDuplicatePanics(t *testing.T) {
	RegisterProgram("registry-dup-test", func() Program { return testProg{} })
	t.Cleanup(func() {
		registryMu.Lock()
		defer registryMu.Unlock()
		delete(programs, "registry-dup-test")
	})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration should panic")
		}
	}()
	RegisterProgram("registry-dup-test", func() Program { return testProg{} })
}

func TestProgramsListedSorted(t *testing.T) {
	names := Programs()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("not sorted: %v", names)
	}
	found := false
	for _, n := range names {
		if n == "test-prog" {
			found = true
		}
	}
	if !found {
		t.Fatal("test-prog missing from listing")
	}
}

func TestCrashProcRegistryReplaces(t *testing.T) {
	called := 0
	RegisterCrashProc("registry-cp-test", func(env *Env, m ResourceMask) (CrashAction, error) {
		called = 1
		return ActionContinue, nil
	})
	RegisterCrashProc("registry-cp-test", func(env *Env, m ResourceMask) (CrashAction, error) {
		called = 2
		return ActionContinue, nil
	})
	proc := LookupCrashProc("registry-cp-test")
	if proc == nil {
		t.Fatal("lookup failed")
	}
	if _, err := proc(nil, 0); err != nil {
		t.Fatal(err)
	}
	if called != 2 {
		t.Fatal("replacement not effective")
	}
	if LookupCrashProc("never-registered") != nil {
		t.Fatal("unknown name should be nil")
	}
}

func TestStartupCostRegistry(t *testing.T) {
	RegisterStartupCost("registry-cost-test", 3*time.Second)
	if StartupCost("registry-cost-test") != 3*time.Second {
		t.Fatal("cost lookup wrong")
	}
	if StartupCost("no-such") != 0 {
		t.Fatal("unknown cost should be zero")
	}
}

func TestResourceMaskString(t *testing.T) {
	if ResourceMask(0).String() != "none" {
		t.Fatal("empty mask")
	}
	m := ResSockets | ResPipes
	s := m.String()
	if s != "sockets+pipes" {
		t.Fatalf("mask string = %q", s)
	}
}

func TestCrashActionStrings(t *testing.T) {
	if ActionContinue.String() != "continue" || ActionRestart.String() != "restart" || ActionGiveUp.String() != "give-up" {
		t.Fatal("action strings wrong")
	}
}
