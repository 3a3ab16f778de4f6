package ship

// QueueDepth returns the number of frames currently held in memory.
func (s *Shipper) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}
