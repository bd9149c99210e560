package benchharness

import (
	"fmt"
	"sync"
	"time"

	"zipper"
)

// Job is one measured run on the real platform: a zipper.Config plus the
// workload that drives it. Producer p writes Burst[p] blocks of BlockBytes
// in each of Bursts bursts, idling Pause between bursts; every consumer
// busy-analyzes each block for Analyze before releasing it.
type Job struct {
	Config zipper.Config
	Bursts int
	// Burst is each producer's blocks per burst (len == Config.Producers).
	Burst      []int
	Pause      time.Duration
	BlockBytes int
	// Analyze is each consumer's busy time per block. It spins rather than
	// sleeps: a timer sleep would round the cost up to the scheduler's
	// granularity and drown the comparison in noise.
	Analyze time.Duration
	// Fill writes producer p's i-th payload; nil stamps the first and last
	// bytes with the block index.
	Fill func(data []byte, p, i int)
	// Unpooled allocates every payload fresh (the seed protocol) instead of
	// taking it from the payload pool and releasing it after analysis.
	Unpooled bool
	// Kills hard-kills that many stagers, one every Pause/2 from the start
	// of the run, slot k%Stagers for the k-th kill.
	Kills int
}

// even gives each of producers the same blocks per burst.
func even(producers, blocks int) []int {
	b := make([]int, producers)
	for i := range b {
		b[i] = blocks
	}
	return b
}

// Total is the block count across all producers and bursts.
func (j Job) Total() int64 {
	var t int64
	for _, b := range j.Burst {
		t += int64(b)
	}
	return t * int64(j.Bursts)
}

func stamp(data []byte, _, i int) { data[0], data[len(data)-1] = byte(i), byte(i>>8) }

// RunJob runs j to completion: it starts one reader per consumer and one
// writer per producer, injects the kills from the calling goroutine, waits
// for every stream to drain, and returns the job-wide stats.
func RunJob(j Job) (zipper.JobStats, error) {
	if len(j.Burst) != j.Config.Producers {
		return zipper.JobStats{}, fmt.Errorf("burst schedule covers %d producers, config has %d",
			len(j.Burst), j.Config.Producers)
	}
	if j.BlockBytes < 2 {
		return zipper.JobStats{}, fmt.Errorf("block size %d, want ≥ 2", j.BlockBytes)
	}
	if j.Kills > 0 && j.Config.Staging.Stagers < 1 {
		return zipper.JobStats{}, fmt.Errorf("%d kills scheduled with no stagers", j.Kills)
	}
	fill := j.Fill
	if fill == nil {
		fill = stamp
	}
	job, err := zipper.NewJob(j.Config)
	if err != nil {
		return zipper.JobStats{}, err
	}
	var readers sync.WaitGroup
	for q := 0; q < j.Config.Consumers; q++ {
		readers.Add(1)
		go func(q int) {
			defer readers.Done()
			var sink byte
			for {
				blk, ok := job.Consumer(q).Read()
				if !ok {
					_ = sink
					return
				}
				sink ^= blk.Data[0] ^ blk.Data[len(blk.Data)-1]
				if j.Analyze > 0 {
					for t0 := time.Now(); time.Since(t0) < j.Analyze; {
					}
				}
				if !j.Unpooled {
					blk.Release()
				}
			}
		}(q)
	}
	for p := 0; p < j.Config.Producers; p++ {
		go func(p int) {
			prod := job.Producer(p)
			i := 0
			for b := 0; b < j.Bursts; b++ {
				if b > 0 {
					time.Sleep(j.Pause)
				}
				for k := 0; k < j.Burst[p]; k++ {
					var data []byte
					if j.Unpooled {
						data = make([]byte, j.BlockBytes)
					} else {
						data = zipper.NewPayload(j.BlockBytes)
					}
					fill(data, p, i)
					prod.Write(i, 0, data)
					i++
				}
			}
			prod.Close()
		}(p)
	}
	// Each kill lands strictly before Wait, so the failure detector is
	// still sweeping (the final forced sweep catches even a kill whose
	// lease never lapsed).
	for k := 0; k < j.Kills; k++ {
		time.Sleep(j.Pause / 2)
		job.InjectStagerCrash(k % j.Config.Staging.Stagers)
	}
	readers.Wait()
	job.Wait()
	return job.Stats(), nil
}
