package main

import (
	"hash/crc32"
	"math/rand"
	"time"

	"pccheck/internal/storage"
)

// rooflines measures, over one payload of n bytes, the machine's peaks for
// the work the save path is made of: a memmove (the staging copy), the
// IEEE CRC the engine checksums payloads with, and a raw storage.RAM
// WriteAt. Each is the median of several passes, in GB/s.
func rooflines(n int) map[string]float64 {
	src := make([]byte, n)
	rand.New(rand.NewSource(1)).Read(src) //nolint:errcheck // math/rand Read never fails
	dst := make([]byte, n)
	ram := storage.NewRAM(int64(n))
	var sink uint32
	out := map[string]float64{
		"roofline.memmove_gbps":   gbps(n, func() { copy(dst, src) }),
		"roofline.crc32_gbps":     gbps(n, func() { sink += crc32.ChecksumIEEE(src) }),
		"roofline.ram_write_gbps": gbps(n, func() { _ = ram.WriteAt(src, 0) }), // in range by construction
	}
	_ = sink
	return out
}

func gbps(n int, f func()) float64 {
	const passes = 15
	f() // touch the pages first
	rates := make([]float64, 0, passes)
	for i := 0; i < passes; i++ {
		t0 := time.Now()
		f()
		rates = append(rates, float64(n)/float64(time.Since(t0).Nanoseconds()))
	}
	return quantile(rates, 0.5)
}
