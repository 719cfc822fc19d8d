package device

import (
	"errors"
	"sync"
	"testing"
)

// TestReduceConcurrentWithFree exercises the Buffer lifetime race fixed by
// the atomic freed flag: kernels snapshotting the backing bytes while
// another goroutine frees the buffer. Run under -race; any interleaving
// must either complete the reduction or fail with ErrBufferFreed — never
// tear.
func TestReduceConcurrentWithFree(t *testing.T) {
	for iter := 0; iter < 50; iter++ {
		g, _ := newGPU()
		buf, v, err := fillFloats(g, 4096, 8, func(i int) float64 { return 1 })
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got, err := reduceSum(g, v, LaunchConfig{Blocks: 16, ThreadsPerBlock: 64})
				if err != nil && !errors.Is(err, ErrBufferFreed) {
					t.Errorf("reduce: %v", err)
				}
				if err == nil && got != 4096 {
					t.Errorf("torn reduce = %v, want 4096", got)
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			buf.Free()
			buf.Free() // Free is idempotent
		}()
		close(start)
		wg.Wait()
	}
}

// TestCacheConcurrentAcquireRelease hammers one FragCache from many
// goroutines mixing hits, version bumps, and invalidations. Run under
// -race.
func TestCacheConcurrentAcquireRelease(t *testing.T) {
	g, _ := newGPU()
	c := NewFragCache(g)
	data := hostFloats(512)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := FragKey{Table: "t", Frag: uint64(i % 4), Rows: 512}
				version := uint64(i % 3)
				pin, _, err := c.Acquire(key, version, len(data), func(b *Buffer) error {
					return g.CopyToDevice(b, 0, data)
				})
				if err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				v := Vec{Buf: pin.Buffer(), Stride: 8, Size: 8, Len: 512}
				if _, err := reduceSum(g, v, LaunchConfig{Blocks: 8, ThreadsPerBlock: 64}); err != nil && !errors.Is(err, ErrBufferFreed) {
					t.Errorf("reduce: %v", err)
				}
				if w == 0 && i%17 == 0 {
					c.InvalidateFrag("t", uint64(i%4))
				}
				pin.Release()
			}
		}(w)
	}
	wg.Wait()
}
