package main

import (
	"errors"
	"fmt"
	"strings"

	"otherworld/internal/apps"
	"otherworld/internal/core"
	"otherworld/internal/experiment"
	"otherworld/internal/hw"
	"otherworld/internal/kernel"
	"otherworld/internal/sim"
	"otherworld/internal/workload"
)

// mixScenario is a machine of MySQL servers, alone (the paper's 8×MySQL
// server scenario) or among the fleet's Apache, Volano and shell processes,
// warmed with client traffic and crashed with an oops. Its inputs are the
// insert payloads.
type mixScenario struct {
	seed                         int64
	mysql, apache, volano, shell int
	lazy, stream                 bool
	indexSlots                   int
	memBytes, crashMB            int
	// inserts is how many warm-up inserts the servers get; as many arrive
	// after the crash. gets is the number of warm-up Apache requests.
	inserts, gets int
	warmQuanta    int
	// payload is the i-th insert's row data: no spaces, at most
	// apps.MySQLRowDataCap bytes.
	payload func(i int) string

	replies int
}

// postTag marks the rows inserted after the crash.
const postTag = "post-"

// seededPayloads returns a payload generator drawing each row's length and
// bytes from seed, so row contents and the crash procedures' disk writes
// vary with the seed.
func seededPayloads(seed int64, prefix string) func(int) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	return func(i int) string {
		r := sim.NewRNG(seed*1_000_003 + int64(i))
		var b strings.Builder
		fmt.Fprintf(&b, "%s%04d-", prefix, i)
		for n := 8 + r.Intn(113); n > 0; n-- {
			b.WriteByte(alphabet[r.Intn(len(alphabet))])
		}
		return b.String()
	}
}

// newMySQL8 is the 8×MySQL scenario: eight servers sharing the listen port
// in a 256 MB machine, warmed with 64 to 191 seeded inserts, so the row
// arenas span one or two pages per server.
func newMySQL8(seed int64, lazy bool) *mixScenario {
	return &mixScenario{
		seed: seed, mysql: 8, lazy: lazy,
		memBytes: 256 << 20, crashMB: 16,
		inserts: 64 + sim.NewRNG(seed).Intn(128), warmQuanta: 600,
		payload: seededPayloads(seed, "w"),
	}
}

// newFleet is the fleet scenario at a population: the experiment package's
// DefaultFleet mix, machine size, candidate index, streaming admission and
// warm-up, with the given insert payloads.
func newFleet(population int, seed int64, payload func(int) string) *mixScenario {
	mysql := max(population/8, 1)
	apache := max(population/8, 1)
	volano := max(population/4, 1)
	shell := max(population-mysql-apache-volano, 1)
	population = mysql + apache + volano + shell
	return &mixScenario{
		seed: seed, mysql: mysql, apache: apache, volano: volano, shell: shell,
		stream: true, indexSlots: population + population/4,
		memBytes: 256<<20 + population*(512<<10), crashMB: 16 + population/32,
		inserts: mysql * 4, gets: apache * 2,
		warmQuanta: population*6 + mysql*16,
		payload:    payload,
	}
}

func (s *mixScenario) options(width int) core.Options {
	opts := core.DefaultOptions()
	opts.HW = hw.Config{MemoryBytes: s.memBytes, NumCPUs: 2, TLBEntries: 64, WatchdogEnabled: true}
	opts.CrashRegionMB = s.crashMB
	opts.Seed = s.seed
	opts.Resurrection.Workers = width
	opts.LazyInstall = s.lazy
	if s.stream {
		opts.Resurrection.Stream = true
		opts.Resurrection.Tiers = experiment.DefaultFleetTiers()
	}
	opts.CandidateIndexSlots = s.indexSlots
	return opts
}

func (s *mixScenario) candidates() int { return s.mysql + s.apache + s.volano + s.shell }

// mustSurvive exempts Volano: its chat connections live in sockets, which
// resurrection does not restore, and it registers no crash procedure, so
// the model fails it by design (the paper's Section 7 limitation).
func (s *mixScenario) mustSurvive(program string) bool { return program != apps.ProgVolano }

// start launches the servers, databases first so they get the lowest PIDs,
// as in the fleet scenario.
func (s *mixScenario) start(m *core.Machine) error {
	for _, g := range []struct {
		prefix, prog string
		n            int
	}{
		{"mysqld", apps.ProgMySQL, s.mysql},
		{"apache", apps.ProgApache, s.apache},
		{"volano", apps.ProgVolano, s.volano},
		{"sh", apps.ProgShell, s.shell},
	} {
		for j := 0; j < g.n; j++ {
			if _, err := m.Start(fmt.Sprintf("%s-%d", g.prefix, j), g.prog); err != nil {
				return fmt.Errorf("start %s-%d: %w", g.prefix, j, err)
			}
		}
	}
	return nil
}

// warm queues the warm-up requests: the deterministic scheduler spreads them
// round-robin over the servers sharing each port, so every server handles
// traffic and faults in its working set.
func (s *mixScenario) warm(m *core.Machine) (int, error) {
	for i := 0; i < s.inserts; i++ {
		m.Net.Deliver(apps.MySQLPort, []byte(fmt.Sprintf("I %d %s", i+1, s.payload(i))))
	}
	for i := 0; i < s.gets; i++ {
		m.Net.Deliver(apps.ApachePort, []byte(fmt.Sprintf("GET /s%d", i)))
	}
	res := m.Run(s.warmQuanta)
	if res.Panic != nil {
		return res.Steps, res.Panic
	}
	return res.Steps, nil
}

// serve delivers the post-crash inserts and runs scheduler rounds until
// every server has answered one: each round steps every process once, and a
// server takes one queued request per step.
func (s *mixScenario) serve(m *core.Machine) error {
	m.Net.OnRemote(apps.MySQLPort, func(p []byte) {
		if strings.HasPrefix(string(p), "OK I ") {
			s.replies++
		}
	})
	for i := 0; i < s.inserts; i++ {
		m.Net.Deliver(apps.MySQLPort, []byte(fmt.Sprintf("I %d %s%s", 1_000_000+i, postTag, s.payload(s.inserts+i))))
	}
	return s.runUntil(m, s.mysql)
}

// runUntil runs scheduler rounds until want replies have arrived.
func (s *mixScenario) runUntil(m *core.Machine, want int) error {
	for round := 0; s.replies < want; round++ {
		if round == 64+want {
			return fmt.Errorf("%d of %d replies after %d rounds", s.replies, want, round)
		}
		res := m.Run(len(m.K.Procs()))
		if res.Panic != nil {
			return res.Panic
		}
	}
	return nil
}

// verify answers the remaining post-crash inserts, then reads every
// server's table: each must hold a post-crash row, and together they must
// hold every row ever acknowledged. Lazy installs must not have fallen back
// to the eager copy, and index discovery must have used the whole index.
func (s *mixScenario) verify(m *core.Machine, fo *core.FailureOutcome) error {
	if err := s.runUntil(m, s.inserts); err != nil {
		return err
	}
	total := 0
	for _, p := range m.K.Procs() {
		if p.D.Program != apps.ProgMySQL {
			continue
		}
		rows, err := apps.MySQLSnapshot(&kernel.Env{K: m.K, P: p})
		if err != nil {
			return fmt.Errorf("%s: %w", p.D.Name, err)
		}
		post := 0
		for _, r := range rows {
			if strings.HasPrefix(string(r), postTag) {
				post++
			}
		}
		if post == 0 {
			return fmt.Errorf("%s answered no post-crash insert", p.D.Name)
		}
		total += len(rows)
	}
	if total != 2*s.inserts {
		return fmt.Errorf("servers hold %d rows, want %d", total, 2*s.inserts)
	}
	rep := fo.Report
	if s.lazy {
		for _, p := range rep.Procs {
			if p.SpecFallback != "" {
				return fmt.Errorf("pid %d fell back from speculation: %s", p.Candidate.PID, p.SpecFallback)
			}
		}
	}
	if s.indexSlots > 0 && (rep.IndexFallback != "" || rep.IndexSkipped != 0 || rep.IndexUsed == 0) {
		return fmt.Errorf("index discovery: used %d, skipped %d, fallback %q",
			rep.IndexUsed, rep.IndexSkipped, rep.IndexFallback)
	}
	return nil
}

// probeApp is the application the campaign's probes run: the WAL store,
// whose recovery also exercises the disk crash model.
const probeApp = "WAL"

// probeScenario runs a campaign application on a machine configured like a
// campaign experiment's, through the campaign's workload client, and
// crashes it with an oops instead of injected faults: the set-up and
// recovery every campaign experiment pays, timed from outside the pool.
type probeScenario struct {
	seed int64
	d    workload.Driver
}

func (p *probeScenario) options(width int) core.Options {
	opts := core.DefaultOptions()
	opts.HW = hw.Config{MemoryBytes: 256 << 20, NumCPUs: 2, TLBEntries: 64, WatchdogEnabled: true}
	opts.CrashRegionMB = 16
	opts.Seed = p.seed
	opts.Resurrection.Workers = width
	opts.DiskCrash.Enabled = true
	return opts
}

func (p *probeScenario) candidates() int { return 0 }

func (p *probeScenario) mustSurvive(string) bool { return true }

func (p *probeScenario) start(m *core.Machine) error {
	d, err := experiment.DriverFor(probeApp, p.seed+7777)
	if err != nil {
		return err
	}
	p.d = d
	return d.Start(m)
}

// warm runs 84 to 92 operations, drawn from the seed: around the mean of
// the experiments' 40 to 136, which follow the seed's residue mod 97 and
// would make the probes' byte counts depend on which seeds a run gets.
func (p *probeScenario) warm(m *core.Machine) (int, error) {
	ops := 84 + sim.NewRNG(p.seed).Intn(9)
	res := workload.RunUntilIdle(m, p.d, ops, ops*40)
	if res.Panic != nil {
		return res.Steps, res.Panic
	}
	return res.Steps, nil
}

// serve reattaches the client, which retransmits its unacknowledged
// request, and runs another 60 operations.
func (p *probeScenario) serve(m *core.Machine) error {
	if err := p.d.Reattach(m); err != nil {
		return err
	}
	res := workload.RunUntilIdle(m, p.d, 60, 2400)
	if res.Panic != nil {
		return res.Panic
	}
	if p.d.Acked() == 0 {
		return errors.New("no operation acknowledged")
	}
	return nil
}

// verify compares the application against the client's log and, where the
// client can, audits its on-disk state.
func (p *probeScenario) verify(m *core.Machine, _ *core.FailureOutcome) error {
	if err := p.d.Verify(m); err != nil {
		return err
	}
	if ck, ok := p.d.(workload.DataInvariantChecker); ok {
		return ck.CheckDataInvariants(m)
	}
	return nil
}
