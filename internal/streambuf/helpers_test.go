package streambuf

// ActiveStreams reports how many buffers are currently allocated.
func (s *StreamBuffers) ActiveStreams() int {
	n := 0
	for i := range s.buffers {
		if s.buffers[i].active {
			n++
		}
	}
	return n
}
