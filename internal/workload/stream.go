package workload

import (
	"bufio"
	"fmt"
	"io"
	"iter"
	"math/rand"
)

// This file holds the streaming generators behind the bulk-ingestion
// path: unlike the Store-building constructors above, these yield edges
// one at a time as (source, target) names, so a 100M-edge graph can be
// written to CSV or fed to an ingestor without ever materializing in
// memory. They are deterministic — the same parameters always produce
// the same stream, which is what lets benchmarks and tests
// share one graph definition and compare answers byte-for-byte.

// GridStream yields the exact edge set of Grid(w, h) — node names
// g<x>_<y>, edges right and down, same order — as a stream. The natural
// query constant is g0_0.
func GridStream(w, h int) iter.Seq2[string, string] {
	return func(yield func(string, string) bool) {
		node := func(x, y int) string { return fmt.Sprintf("g%d_%d", x, y) }
		for x := 0; x < w; x++ {
			for y := 0; y < h; y++ {
				if x+1 < w && !yield(node(x, y), node(x+1, y)) {
					return
				}
				if y+1 < h && !yield(node(x, y), node(x, y+1)) {
					return
				}
			}
		}
	}
}

// PowerLawStream yields m edges over n nodes named n0..n(n-1) with
// Zipf-distributed endpoints — the degree skew of real link graphs,
// where a few hub nodes collect a large share of the edges. Determinism
// comes from the explicit seed. Self-loops and duplicate edges occur, as
// they do in raw crawl data; ingestion deduplicates.
func PowerLawStream(n, m int, seed int64) iter.Seq2[string, string] {
	return func(yield func(string, string) bool) {
		rng := rand.New(rand.NewSource(seed))
		zipf := rand.NewZipf(rng, 1.2, 1, uint64(n-1))
		for i := 0; i < m; i++ {
			src := fmt.Sprintf("n%d", zipf.Uint64())
			dst := fmt.Sprintf("n%d", zipf.Uint64())
			if !yield(src, dst) {
				return
			}
		}
	}
}

// WriteCSV writes the stream as "src,dst" lines — the input format of
// the bulk CSV ingestor — and returns the number of edges written.
func WriteCSV(w io.Writer, edges iter.Seq2[string, string]) (int, error) {
	bw := bufio.NewWriterSize(w, 1<<20)
	n := 0
	for src, dst := range edges {
		if _, err := bw.WriteString(src); err != nil {
			return n, err
		}
		bw.WriteByte(',')
		bw.WriteString(dst)
		if err := bw.WriteByte('\n'); err != nil {
			return n, err
		}
		n++
	}
	return n, bw.Flush()
}
