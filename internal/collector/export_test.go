package collector

import (
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/wire"
)

// Verdicts returns the source's published verdict snapshot: the unresolved
// change-event count and the recent ranked verdicts, oldest first.
func (s *Source) Verdicts() (active int, verdicts []detect.Verdict) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.activeVerdicts, append([]detect.Verdict(nil), s.verdicts...)
}

// Epoch returns the source's numbering epoch (0 before its first
// connection).
func (s *Source) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wm.Epoch
}

// Diag returns the integration diagnostics of the last completed set.
func (s *Source) Diag() core.Diagnostics {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.row.Diag
}

// InstallState installs st, with its item count, on source id (created if
// needed), as a restore or a handoff import does.
func (c *Collector) InstallState(id string, st wire.SourceState, items int) {
	s := c.source(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.setStateLocked(st, items)
}

// State returns the row a checkpoint would write for the source.
func (s *Source) State() wire.SourceState {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stateLocked()
}

// Shipped returns the TFleetSummary OnSummary ships for the source's last
// set: its header, with the set's items.
func (s *Source) Shipped() wire.FleetSummary {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	fs := s.headerLocked()
	_, fs.Items = storedItems(s.ID, s.payloadLocked())
	return fs
}
