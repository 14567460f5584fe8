package criu

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"

	"github.com/dynacut/dynacut/internal/delf"
	"github.com/dynacut/dynacut/internal/kernel"
)

// benchCloneSets builds n divergent clone checkpoints of the counter
// guest, ballasted with extra distinct pages so each deposit interns a
// realistic page count. The sets share most content — the fleet
// deposit workload the sharded page map exists for.
func benchCloneSets(b *testing.B, n int) []*ImageSet {
	b.Helper()
	m, p := loadCounter(b)

	const ballastPages = 64
	const ballastBase = uint64(0x4000_0000)
	if err := p.Mem().Map(kernel.VMA{
		Start: ballastBase, End: ballastBase + ballastPages*kernel.PageSize,
		Perm: delf.PermR | delf.PermW, Name: "ballast", Anon: true,
	}); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, kernel.PageSize)
	for i := 0; i < ballastPages; i++ {
		for j := range buf {
			buf[j] = byte(i) ^ byte(j)
		}
		if err := p.Mem().Write(ballastBase+uint64(i)*kernel.PageSize, buf); err != nil {
			b.Fatal(err)
		}
	}

	sets := make([]*ImageSet, n)
	for i := range sets {
		rm := m.Clone()
		rm.Run(uint64(100 * i))
		rp, err := rm.Process(p.PID())
		if err != nil {
			b.Fatal(err)
		}
		set, err := Dump(rm, rp.PID(), DumpOpts{ExecPages: true})
		if err != nil {
			b.Fatal(err)
		}
		sets[i] = set
	}
	return sets
}

// hotShardFrac computes the contention proxy the sharding exists to
// shrink: the fraction of page interns that land on the single
// busiest bucket lock. 1.0 means every intern fights over one mutex
// (the pre-sharding layout); ~1/shards means an even spread. Unlike
// ns/op this is deterministic and machine-independent — on a
// single-CPU runner the wall-clock columns collapse to parity because
// goroutines never truly contend, but the spread still tells the
// story.
func hotShardFrac(sets []*ImageSet, shards int) float64 {
	counts := make([]int, shards)
	total := 0
	for _, s := range sets {
		for _, pi := range s.Procs {
			for _, pg := range pi.Pages {
				key := sha256.Sum256(pg)
				counts[int(key[0])&(shards-1)]++
				total++
			}
		}
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	return float64(max) / float64(total)
}

// BenchmarkPageStoreParallelDeposit measures one fleet checkpoint
// deposit — every replica's set deposited concurrently into a fresh
// store — in three lock regimes: "coarse" emulates the pre-sharding
// store, whose single mutex was held across the whole deposit (every
// page hash included), fully serializing depositors; "shards=1" is
// the refactored store collapsed to one page-map bucket (hashing
// already outside the lock); "shards=64" is the shipped layout. Same
// work in each, different contention.
func BenchmarkPageStoreParallelDeposit(b *testing.B) {
	sets := benchCloneSets(b, 32)
	run := func(b *testing.B, shards int, coarse *sync.Mutex) {
		b.ReportMetric(hotShardFrac(sets, shards), "hot-shard-frac")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			store := newPageStoreShards(shards)
			var wg sync.WaitGroup
			for _, set := range sets {
				wg.Add(1)
				go func(s *ImageSet) {
					defer wg.Done()
					if coarse != nil {
						coarse.Lock()
						defer coarse.Unlock()
					}
					if _, err := store.Deposit(s); err != nil {
						b.Error(err)
					}
				}(set)
			}
			wg.Wait()
		}
	}
	b.Run("coarse", func(b *testing.B) { run(b, 1, new(sync.Mutex)) })
	for _, shards := range []int{1, 64} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) { run(b, shards, nil) })
	}
}

// BenchmarkPageStoreParallelMaterialize measures the read side: many
// workers re-materializing deposited checkpoints at once, the pristine
// rollback path when a halted wave restores replicas in parallel.
func BenchmarkPageStoreParallelMaterialize(b *testing.B) {
	sets := benchCloneSets(b, 32)
	for _, shards := range []int{1, 64} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			store := newPageStoreShards(shards)
			idents := make([][sha256.Size]byte, len(sets))
			for i, set := range sets {
				id, err := store.Deposit(set)
				if err != nil {
					b.Fatal(err)
				}
				idents[i] = id
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if _, err := store.Materialize(idents[i%len(idents)]); err != nil {
						b.Error(err)
					}
					i++
				}
			})
		})
	}
}
