package exec

// LowerFooterBound sets sr's footer bound to n bytes, so that a test can make
// it evict without writing 64 MiB of footers.
func LowerFooterBound(sr *StoreReader, n int64) { sr.bound = n }

// FooterBytes returns the encoded length of the footers sr holds, summed.
func (sr *StoreReader) FooterBytes() int64 {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	return sr.lru.Bytes()
}

// HeldFooters lists the paths whose footers sr holds, oldest first.
func HeldFooters(sr *StoreReader) []string {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	var paths []string
	for f := sr.lru.Oldest(); f != nil; f = sr.lru.Newer(f) {
		paths = append(paths, f.path)
	}
	return paths
}
