// Package otherworld is a complete Go reproduction of "Otherworld: Giving
// Applications a Chance to Survive OS Kernel Crashes" (Depoutovitch &
// Stumm, EuroSys 2010): a simulated machine and monolithic kernel, a
// resident crash kernel that resurrects applications from the dead kernel's
// raw memory image, the paper's five case-study applications with their
// crash procedures, the Rio/Nooks fault injector, and the full evaluation
// harness reproducing every table in the paper.
//
// The root package holds only this documentation; the implementation lives
// under internal/, the runnable entry points under cmd/ and examples/, and
// the evaluation's tables come from cmd/owbench. Start with README.md,
// DESIGN.md and EXPERIMENTS.md.
package otherworld
