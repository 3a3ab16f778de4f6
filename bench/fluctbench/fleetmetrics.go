package main

import (
	"cmp"
	"slices"
	"time"

	"repro/internal/stats"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// maxStolen is the share of the guest's CPU capacity the hypervisor may
// withhold during a slice (the steal column of /proc/stat) before the
// slice is left out of the medians. On this shared box the latency of an
// identical fleet_paced slice rose from ≈5.1 ms below 5% to 6.6–8.2 ms
// above 12%: such a slice measures the host, not the program, and the
// cause is one the program cannot influence.
const maxStolen = 0.05

// timedSlice is one slice's values of the timed metrics and the share of
// the CPU the host withheld while it ran.
type timedSlice struct {
	rate, cpuPerSet   float64
	handoff, ack, vis float64
	latencies         bool // the slice had sets the latency medians take
	stolen            float64
}

// undisturbed returns the slices during which the host withheld at most
// maxStolen of the CPU — or all of them when that would leave fewer than a
// quarter (at least three), and the medians would rest on too little.
func undisturbed[S any](all []S, stolen func(S) float64) []S {
	var kept []S
	for _, s := range all {
		if stolen(s) <= maxStolen {
			kept = append(kept, s)
		}
	}
	if len(kept) < max(3, (len(all)+3)/4) {
		return all
	}
	return kept
}

// fleetE2E turns a measured window into the end-to-end metrics.
//
// Every timed metric is computed per slice and the median across the
// undisturbed slices is reported, so one noisy-neighbour burst cannot move
// it. On the closed and paced loops slice boundaries sit on set
// completions — the last one at or before each whole second — so a slice
// always holds whole sets and its rate is not quantized to 1/slice; on
// fleet_catchup a slice is a round.
func fleetE2E(mode loadMode, out *fleetOutcome, before, after regSnap) map[string]dist {
	var done []setRec
	items := 0
	for _, r := range out.recs {
		if r.done {
			done = append(done, r)
			items += r.items
		}
	}
	slices.SortFunc(done, func(a, b setRec) int { return cmp.Compare(a.vis, b.vis) })
	m := map[string]dist{}
	if len(done) == 0 {
		return m
	}
	m["bytes_per_item"] = single((after.spoolBytes-before.spoolBytes)/float64(items), items)
	m["alloc_bytes_per_item"] = single((after.totalAlloc-before.totalAlloc)/float64(items), items)

	// timed fills one slice from the sets it holds: they completed between
	// t0 and t1, the rate counts from rate0.
	timed := func(in []setRec, t0, rate0, t1 time.Duration) timedSlice {
		n := float64(len(in))
		s := timedSlice{
			rate:      n / (t1 - rate0).Seconds(),
			cpuPerSet: ms(out.cpu.cpuAt(t1)-out.cpu.cpuAt(t0)) / n,
			stolen:    out.cpu.stolen(t0, t1),
		}
		var handoff, ack, vis []float64
		for _, r := range in {
			if r.stepped {
				continue
			}
			handoff = append(handoff, ms(r.handoff-r.start-r.late))
			ack = append(ack, ms(r.ack-r.start))
			vis = append(vis, ms(r.vis-r.start))
		}
		if len(ack) > 0 {
			s.latencies = true
			s.handoff, s.ack, s.vis = stats.Median(handoff), stats.Median(ack), stats.Median(vis)
		}
		return s
	}

	var all []timedSlice
	if mode == catchupLoop {
		// A round is a slice: its replay rate from the collectors' restart
		// to the last set visible, and the median age of its sets (spooled
		// while nothing could be delivered) at each acknowledgement.
		byRound := make([][]setRec, len(out.rounds))
		for _, r := range done {
			byRound[r.round] = append(byRound[r.round], r)
		}
		for i, in := range byRound {
			if len(in) > 0 {
				rd := out.rounds[i]
				all = append(all, timed(in, rd.w0, rd.up, rd.w1))
			}
		}
	} else {
		var marks []time.Duration
		for mark := out.w0 + sliceLen; mark <= out.w1; mark += sliceLen {
			marks = append(marks, mark)
		}
		if len(marks) == 0 {
			marks = []time.Duration{out.w1} // a window shorter than a slice is one slice
		}
		prev, from := out.w0, 0
		for _, mark := range marks {
			to := from
			for to < len(done) && done[to].vis <= mark {
				to++
			}
			if to == from {
				// A stalled second stays in the throughput series.
				all = append(all, timedSlice{stolen: out.cpu.stolen(prev, mark)})
				continue
			}
			end := done[to-1].vis
			all = append(all, timed(done[from:to], prev, prev, end))
			prev, from = end, to
		}
	}

	kept := undisturbed(all, func(s timedSlice) float64 { return s.stolen })
	var rate, handoff, ack, vis, cpuPerSet []float64
	for _, s := range kept {
		rate = append(rate, s.rate)
		if s.rate > 0 {
			cpuPerSet = append(cpuPerSet, s.cpuPerSet)
		}
		if s.latencies {
			handoff, ack, vis = append(handoff, s.handoff), append(ack, s.ack), append(vis, s.vis)
		}
	}
	dropped := len(all) - len(kept)
	m["sets_per_s"] = summarize(rate, len(done), dropped)
	m["handoff_p50_ms"] = summarize(handoff, len(done), dropped)
	m["ack_p50_ms"] = summarize(ack, len(done), dropped)
	m["visible_p50_ms"] = summarize(vis, len(done), dropped)
	m["cpu_ms_per_set"] = summarize(cpuPerSet, len(done), dropped)
	return m
}
