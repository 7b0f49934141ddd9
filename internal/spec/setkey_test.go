package spec

import (
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"ralin/internal/core"
)

// setKeyAlphabet mixes the characters a quoting bug would mishandle: quotes,
// commas, backslashes, control and non-ASCII runes (including an invalid
// UTF-8 byte, which strconv.Quote escapes).
var setKeyAlphabet = []string{"a", "b", "z", "\"", ",", "\\", "\n", "é", "世", "🙂", "\xff", " "}

func randomSetValue(rng *rand.Rand) string {
	n := rng.Intn(4)
	var v string
	for i := 0; i < n; i++ {
		v += setKeyAlphabet[rng.Intn(len(setKeyAlphabet))]
	}
	return v
}

func randomSetState(rng *rand.Rand) SetState {
	s := SetState{}
	for i, n := 0, rng.Intn(24); i < n; i++ {
		s[randomSetValue(rng)] = true
	}
	return s
}

// TestSetStateKeyMatchesQuoteJoin pins SetState.StateKey byte for byte to the
// quoteJoin rendering of the sorted elements, over random sets whose values
// contain quotes, commas and non-ASCII — larger sets included, so both the
// stack buffers and their heap spill are exercised.
func TestSetStateKeyMatchesQuoteJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 2000; trial++ {
		s := randomSetState(rng)
		if trial%50 == 0 {
			for i := 0; i < 40; i++ {
				s[randomSetValue(rng)+randomSetValue(rng)+randomSetValue(rng)] = true
			}
		}
		got, ok := s.StateKey()
		if want := quoteJoin(core.SortedSet(s.Values())); !ok || got != want {
			t.Fatalf("StateKey(%v) = %q, %v; want %q", s, got, ok, want)
		}
	}
}

// TestSetReadAdmissionMatchesValueEqual pins the read admission check of
// Set.StepAppend to its definition, core.ValueEqual(ret, s.Values()), on
// matching, permuted, duplicated, truncated, extended, empty and nil returns.
func TestSetReadAdmissionMatchesValueEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 3000; trial++ {
		s := randomSetState(rng)
		ret := s.Values()
		switch trial % 8 {
		case 1:
			rng.Shuffle(len(ret), func(i, j int) { ret[i], ret[j] = ret[j], ret[i] })
		case 2:
			if len(ret) > 0 {
				ret = append(ret, ret[len(ret)-1])
			}
		case 3:
			if len(ret) > 0 {
				ret = ret[:len(ret)-1]
			}
		case 4:
			ret = append(ret, randomSetValue(rng))
			slices.Sort(ret)
		case 5:
			if len(ret) > 0 {
				ret[rng.Intn(len(ret))] = randomSetValue(rng)
			}
		case 6:
			ret = []string{}
		case 7:
			ret = nil
		}
		l := &core.Label{ID: 1, Method: "read", Ret: ret, Kind: core.KindQuery}
		admitted := len(Set{}.StepAppend(nil, s, l)) == 1
		if want := core.ValueEqual(ret, s.Values()); admitted != want {
			t.Fatalf("read %#v at %v: admitted=%v, ValueEqual=%v", ret, s, admitted, want)
		}
	}
}

// randomORSetState draws pairs over a small element alphabet, so several
// pairs usually share an element; every 50th state also holds a few hundred
// distinct elements, past listsElems' stack bitmap.
func randomORSetState(rng *rand.Rand, trial int) ORSetState {
	s := ORSetState{}
	for i, n := 0, rng.Intn(12); i < n; i++ {
		s[core.Pair{Elem: setKeyAlphabet[rng.Intn(4)], ID: uint64(rng.Intn(20))}] = true
	}
	if trial%50 == 0 {
		for i := 0; i < 300; i++ {
			s[core.Pair{Elem: randomSetValue(rng) + strconv.Itoa(i), ID: uint64(i)}] = true
		}
	}
	return s
}

// TestORSetQueryAdmissionMatchesValueEqual pins the read and readIds
// admission checks of ORSet.StepAppend to their definitions — ValueEqual
// against s.Values(), and against the SortPairs-sorted pairs of the element
// (an empty, non-nil slice when there are none) — on matching, permuted,
// duplicated, truncated, extended, wrong-element, empty and nil returns.
func TestORSetQueryAdmissionMatchesValueEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	admitted := func(s ORSetState, l *core.Label) bool { return len(ORSet{}.StepAppend(nil, s, l)) == 1 }
	for trial := 0; trial < 3000; trial++ {
		s := randomORSetState(rng, trial)
		vals := s.Values()
		switch trial % 8 {
		case 1:
			rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		case 2:
			if len(vals) > 0 {
				vals = append(vals, vals[len(vals)-1])
			}
		case 3:
			if len(vals) > 0 {
				vals = vals[:len(vals)-1]
			}
		case 4:
			vals = append(vals, randomSetValue(rng))
			slices.Sort(vals)
		case 5:
			if len(vals) > 0 {
				vals[rng.Intn(len(vals))] = randomSetValue(rng)
			}
		case 6:
			vals = []string{}
		case 7:
			vals = nil
		}
		read := &core.Label{ID: 1, Method: "read", Ret: vals, Kind: core.KindQuery}
		if got, want := admitted(s, read), core.ValueEqual(vals, s.Values()); got != want {
			t.Fatalf("read %#v at %v: admitted=%v, ValueEqual=%v", vals, s, got, want)
		}

		elem := setKeyAlphabet[rng.Intn(5)]
		var want []core.Pair
		for p := range s {
			if p.Elem == elem {
				want = append(want, p)
			}
		}
		want = core.SortPairs(want)
		if len(want) == 0 {
			want = []core.Pair{}
		}
		ret := append([]core.Pair{}, want...)
		switch trial % 8 {
		case 1:
			rng.Shuffle(len(ret), func(i, j int) { ret[i], ret[j] = ret[j], ret[i] })
		case 2:
			if len(ret) > 0 {
				ret = append(ret, ret[0])
				core.SortPairs(ret)
			}
		case 3:
			if len(ret) > 0 {
				ret = ret[1:]
			}
		case 4:
			for p := range s {
				if p.Elem != elem {
					ret = core.SortPairs(append(ret, p))
					break
				}
			}
		case 5:
			ret = core.SortPairs(append(ret, core.Pair{Elem: elem, ID: 999}))
		case 6:
			ret = []core.Pair{}
		case 7:
			ret = nil
		}
		readIds := &core.Label{ID: 2, Method: "readIds", Args: []core.Value{elem}, Ret: ret, Kind: core.KindQuery}
		if got, want := admitted(s, readIds), core.ValueEqual(ret, want); got != want {
			t.Fatalf("readIds(%q) %#v at %v: admitted=%v, ValueEqual=%v", elem, ret, s, got, want)
		}
	}
	// A return of the wrong type is never admitted.
	s := ORSetState{{Elem: "a", ID: 1}: true}
	if admitted(s, &core.Label{Method: "read", Ret: []core.Pair{{Elem: "a", ID: 1}}}) ||
		admitted(s, &core.Label{Method: "readIds", Args: []core.Value{"a"}, Ret: []string{"a"}}) {
		t.Fatal("a return value of the wrong type was admitted")
	}
}
