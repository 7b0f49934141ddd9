package spec

import (
	"math/rand"
	"slices"
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
