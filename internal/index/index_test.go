package index

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHashPutGet(t *testing.T) {
	h := NewHash(4)
	for i := int64(0); i < 100; i++ {
		if err := h.Put(i*7, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if h.Len() != 100 {
		t.Fatalf("Len = %d", h.Len())
	}
	for i := int64(0); i < 100; i++ {
		row, err := h.Get(i * 7)
		if err != nil || row != uint64(i) {
			t.Fatalf("Get(%d) = %d, %v", i*7, row, err)
		}
	}
	if _, err := h.Get(1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key err = %v", err)
	}
}

func TestHashDuplicate(t *testing.T) {
	h := NewHash(4)
	h.Put(1, 1)
	if err := h.Put(1, 2); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("err = %v", err)
	}
	row, _ := h.Get(1)
	if row != 1 {
		t.Fatal("duplicate overwrote")
	}
}

func TestHashGrowthKeepsEverything(t *testing.T) {
	h := NewHash(0)
	const n = 10_000
	for i := int64(0); i < n; i++ {
		if err := h.Put(i*13+7, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < n; i++ {
		row, err := h.Get(i*13 + 7)
		if err != nil || row != uint64(i) {
			t.Fatalf("after growth Get(%d) = %d, %v", i*13+7, row, err)
		}
	}
}

// Property: the hash index agrees with a model map under random put/get
// sequences.
func TestQuickHashModel(t *testing.T) {
	f := func(seed int64, opsRaw uint16) bool {
		r := rand.New(rand.NewSource(seed))
		h := NewHash(2)
		model := map[int64]uint64{}
		ops := int(opsRaw)%2000 + 10
		for i := 0; i < ops; i++ {
			k := int64(r.Intn(200))
			switch r.Intn(2) {
			case 0:
				err := h.Put(k, uint64(i))
				if _, exists := model[k]; exists != errors.Is(err, ErrDuplicate) {
					return false
				}
				if err == nil {
					model[k] = uint64(i)
				}
			case 1:
				row, err := h.Get(k)
				want, exists := model[k]
				if exists != (err == nil) || (exists && row != want) {
					return false
				}
			}
		}
		return h.Len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
