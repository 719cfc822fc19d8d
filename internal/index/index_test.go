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

func TestHashUpdate(t *testing.T) {
	h := NewHash(4)
	h.Put(5, 10)
	if err := h.Update(5, 99); err != nil {
		t.Fatal(err)
	}
	row, _ := h.Get(5)
	if row != 99 {
		t.Fatalf("row = %d", row)
	}
	if err := h.Update(6, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestHashDeleteAndTombstoneReuse(t *testing.T) {
	h := NewHash(4)
	for i := int64(0); i < 50; i++ {
		h.Put(i, uint64(i))
	}
	for i := int64(0); i < 50; i += 2 {
		if err := h.Delete(i); err != nil {
			t.Fatal(err)
		}
	}
	if h.Len() != 25 {
		t.Fatalf("Len = %d", h.Len())
	}
	for i := int64(0); i < 50; i++ {
		_, err := h.Get(i)
		if i%2 == 0 && !errors.Is(err, ErrNotFound) {
			t.Fatalf("deleted key %d still found", i)
		}
		if i%2 == 1 && err != nil {
			t.Fatalf("surviving key %d lost: %v", i, err)
		}
	}
	// Re-insert into tombstones.
	for i := int64(0); i < 50; i += 2 {
		if err := h.Put(i, uint64(i+1000)); err != nil {
			t.Fatal(err)
		}
	}
	row, err := h.Get(4)
	if err != nil || row != 1004 {
		t.Fatalf("reused slot = %d, %v", row, err)
	}
	if err := h.Delete(9999); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
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

// Property: the hash index agrees with a model map under random
// put/get/update/delete sequences.
func TestQuickHashModel(t *testing.T) {
	f := func(seed int64, opsRaw uint16) bool {
		r := rand.New(rand.NewSource(seed))
		h := NewHash(2)
		model := map[int64]uint64{}
		ops := int(opsRaw)%2000 + 10
		for i := 0; i < ops; i++ {
			k := int64(r.Intn(200))
			switch r.Intn(4) {
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
			case 2:
				err := h.Update(k, uint64(i))
				if _, exists := model[k]; exists != (err == nil) {
					return false
				}
				if err == nil {
					model[k] = uint64(i)
				}
			case 3:
				err := h.Delete(k)
				if _, exists := model[k]; exists != (err == nil) {
					return false
				}
				delete(model, k)
			}
		}
		return h.Len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
