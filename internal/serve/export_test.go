package serve

// MemBytes reports the payload bytes resident in memory.
func (s *Store) MemBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.memSize
}
