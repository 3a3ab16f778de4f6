package pmu

// DroppedBursts returns how many contiguous loss episodes the overflow
// policy produced (0 under OverflowDrain).
func (p *PEBS) DroppedBursts() uint64 { return p.bursts }
