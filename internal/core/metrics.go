// Machine-level wiring of the metrics plane: collectors that publish the
// hardware and kernel tallies into the registry, and the flush path that
// persists a snapshot into the crash reservation's metrics segment so the
// post-microreboot kernel can report what the dead kernel measured.
package core

import (
	"otherworld/internal/metrics"
	"otherworld/internal/phys"
)

// Metrics returns the machine's registry (nil when Options.MetricsPages
// is 0). The registry is shared across kernel generations: it lives with
// the machine, not the kernel, exactly so recovery itself is measurable.
func (m *Machine) Metrics() *metrics.Registry { return m.metrics }

// MetricsRegion returns the physical region of the active slot's metrics
// segment (zero region when the plane is disabled).
func (m *Machine) MetricsRegion() phys.Region {
	return m.tailRegion(m.slots[m.imageSlot], tailMetrics)
}

// collectMetrics publishes every machine-level collector into the
// registry: physical-memory bus traffic, per-device disk totals, the
// current kernel generation's perf counters, the flight recorder's write
// side, and the machine's own reboot/flush bookkeeping. Collector sources
// keep their own tallies, so everything lands via SetTotal (counter-reset
// semantics across kernel generations are normal and expected).
func (m *Machine) collectMetrics() {
	reg := m.metrics
	if reg == nil {
		return
	}
	reg.SetNow(int64(m.HW.Clock.Now()))

	st := m.HW.Mem.Stats()
	reg.Counter("phys_read_ops_total", "physical memory read operations", nil).SetTotal(st.ReadOps)
	reg.Counter("phys_read_bytes_total", "physical memory bytes read", nil).SetTotal(st.ReadBytes)
	reg.Counter("phys_write_ops_total", "physical memory write operations", nil).SetTotal(st.WriteOps)
	reg.Counter("phys_write_bytes_total", "physical memory bytes written", nil).SetTotal(st.WriteBytes)
	reg.Counter("phys_protection_faults_total",
		"writes refused by frame protection (trapped wild writes)", nil).SetTotal(st.ProtFaults)

	// Bus.Names is sorted, so the registration order is stable.
	for _, name := range m.HW.Bus.Names() {
		dev, err := m.HW.Bus.Open(name)
		if err != nil {
			continue
		}
		r, w := dev.Stats()
		l := metrics.Labels{"device": name}
		reg.Counter("disk_read_blocks_total", "blocks read per device", l).SetTotal(r)
		reg.Counter("disk_write_blocks_total", "blocks written per device", l).SetTotal(w)
	}

	if k := m.K; k != nil {
		p := k.Perf
		reg.Counter("kernel_cycles_total", "virtual CPU cycles this kernel generation", nil).SetTotal(int64(p.Cycles))
		reg.Counter("kernel_mem_accesses_total", "TLB-filtered memory accesses", nil).SetTotal(int64(p.MemAccesses))
		reg.Counter("kernel_syscalls_total", "completed system calls", nil).SetTotal(int64(p.Syscalls))
		reg.Counter("kernel_pt_switches_total", "protected-mode page-table switches", nil).SetTotal(int64(p.PTSwitches))
		reg.Counter("kernel_steps_total", "program steps executed", nil).SetTotal(int64(p.Steps))
		reg.Counter("kernel_page_faults_total", "page faults taken", nil).SetTotal(int64(p.PageFaults))
		reg.Counter("kernel_swap_ins_total", "pages swapped in", nil).SetTotal(int64(p.SwapIns))
		reg.Counter("kernel_swap_outs_total", "pages swapped out", nil).SetTotal(int64(p.SwapOuts))
		reg.Counter("kernel_wild_writes_total", "stray kernel stores attempted", nil).SetTotal(int64(p.WildWrites))
		reg.Counter("kernel_wild_writes_trapped_total", "stray stores caught by protection", nil).SetTotal(int64(p.WildWritesTrapped))
		reg.Counter("kernel_wild_writes_landed_total", "stray stores that corrupted memory", nil).SetTotal(int64(p.WildWritesLanded))
		reg.Counter("kernel_wild_writes_pagetable_total", "landed stores that hit page tables", nil).SetTotal(int64(p.WildWritesPageTable))
	}

	m.tracer.CollectInto(reg)

	reg.Counter("machine_reboots_total", "completed microreboots", nil).SetTotal(int64(m.Reboots))
	reg.Counter("metrics_flush_errors_total",
		"metrics segment flushes that hit a write error", nil).SetTotal(m.metricsFlushErrs)
	reg.Counter("metrics_points_dropped_total",
		"points that did not fit the metrics segment", nil).SetTotal(m.metricsDropped)
}

// MetricsSnapshot runs the collectors and returns the current snapshot.
// Never nil: with the plane disabled it is empty but well-formed.
func (m *Machine) MetricsSnapshot() *metrics.Snapshot {
	m.collectMetrics()
	return m.metrics.Snapshot()
}

// FlushMetrics collects and persists a snapshot into the active slot's
// metrics segment. Like the flight recorder, the tail written since the
// last flush dies with the kernel — the segment records what made it to
// "stable" memory, pstore style. Write errors and dropped points are
// tallied and surface as metrics on the next collect; they never take the
// machine down.
func (m *Machine) FlushMetrics() {
	if m.metrics == nil {
		return
	}
	snap := m.MetricsSnapshot()
	_, dropped, err := metrics.WriteSegment(m.HW.Mem, m.MetricsRegion(), uint32(m.kernelSeq), snap)
	m.metricsDropped += int64(dropped)
	if err != nil {
		m.metricsFlushErrs++
	}
}
