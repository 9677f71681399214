package progen

// Corpus renders n deterministic programs as canonical ILOC text by
// sweeping the ForSeed configuration space from the given seed — the
// workload the service tests and benchmarks replay against the
// optimization service.  Same (seed, n) → same corpus, byte for byte,
// across processes and platforms.
func Corpus(seed uint64, n int) []string {
	if n <= 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		s := seed + uint64(i)
		out[i] = Generate(ForSeed(s), s).String()
	}
	return out
}
