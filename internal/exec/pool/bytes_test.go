package pool

import (
	"sync"
	"testing"
)

// TestGetBytesRecycles checks the round trip: a returned buffer's
// capacity is visible to a later caller, and GetBytes always hands back
// an empty slice.
func TestGetBytesRecycles(t *testing.T) {
	b := GetBytesCap(1 << 15)
	if len(b) != 0 {
		t.Fatalf("GetBytesCap returned non-empty slice: len=%d", len(b))
	}
	if cap(b) < 1<<15 {
		t.Fatalf("GetBytesCap(%d) cap = %d", 1<<15, cap(b))
	}
	b = append(b, make([]byte, 1<<15)...)
	PutBytes(b)
	for i := 0; i < 64; i++ {
		r := GetBytes()
		if len(r) != 0 {
			t.Fatalf("recycled buffer not reset: len=%d", len(r))
		}
		if cap(r) >= 1<<15 {
			return // got the big one back
		}
		PutBytes(r)
	}
	t.Skip("recycled buffer not observed (GC or parallel test interference); nothing to assert")
}

// TestGetBytesCapRepoolsOnGrow pins the re-pool discipline: an
// undersized fetch is returned for smaller callers rather than dropped.
func TestGetBytesCapRepoolsOnGrow(t *testing.T) {
	for i := 0; i < 64; i++ {
		PutBytes(make([]byte, 0, 7))
		PutBytes(GetBytesCap(1 << 16)) // fetches the cap-7 buffer, must re-pool it
		if cap(GetBytes()) == 7 {
			return
		}
	}
	t.Fatal("too-small byte buffers are dropped by GetBytesCap instead of re-pooled")
}

// TestBytesPoolConcurrent hammers the byte pool from many goroutines
// under -race.
func TestBytesPoolConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed byte) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				b := GetBytesCap(128 + int(seed)*64)
				for j := 0; j < 128; j++ {
					b = append(b, seed)
				}
				for j := 0; j < 128; j++ {
					if b[j] != seed {
						t.Errorf("buffer shared while in use: got %d want %d", b[j], seed)
						return
					}
				}
				PutBytes(b)
			}
		}(byte(w + 1))
	}
	wg.Wait()
}
