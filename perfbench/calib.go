package main

import (
	"crypto/sha256"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// calibRefSeconds is the calibration task's mean time on the reference
// host (NOTES.md, "Host-speed scaling"). An untraced run scales its times
// by calibRefSeconds over the mean of its own calibration samples, so
// they read as seconds on the reference host, whatever speed the host
// runs at during the run.
const calibRefSeconds = 0.024

// calibKeys are the calibration task's map keys, made once so that the
// task allocates little: its map and buffers, and the byte copies of the
// keys it hashes.
var calibKeys = func() []string {
	keys := make([]string, 4000)
	for i := range keys {
		keys[i] = strconv.Itoa(i * 7919 % 100003)
	}
	return keys
}()

// calibSink keeps the calibration task's result alive.
var calibSink [64]byte

// calibrate runs one fixed CPU task that shares no code with SECRETA (map
// inserts and lookups, a string sort and a SHA-256 hash, the kinds of work
// the server's hot paths do) on every CPU at once, and returns its mean
// time. The host's speed moves that time the way it moves the server's:
// on a shared host a CPU runs slower while its neighbours are busy.
func calibrate() float64 {
	n := runtime.NumCPU()
	secs := make([]float64, n)
	var wg sync.WaitGroup
	for g := range secs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			secs[g] = calibTask(&calibSink[g%len(calibSink)])
		}()
	}
	wg.Wait()
	return mean(secs)
}

func calibTask(sink *byte) float64 {
	m := make(map[string]int, len(calibKeys))
	work := make([]string, len(calibKeys))
	h := sha256.New()
	t := time.Now()
	for r := 0; r < 25; r++ {
		clear(m)
		for i, k := range calibKeys {
			m[k] = i
		}
		copy(work, calibKeys)
		sort.Strings(work)
		h.Reset()
		for _, k := range work {
			h.Write([]byte(k))
			*sink ^= byte(m[k])
		}
		*sink ^= h.Sum(nil)[0]
	}
	return time.Since(t).Seconds()
}

// hostScale is calibRefSeconds over the mean of samples: above 1 when the
// host ran faster than the reference host. The mean, not the median, so
// that the scale follows the share of time the host ran slow, as the
// workload's times do.
func hostScale(samples []float64) float64 {
	return calibRefSeconds / mean(samples)
}
