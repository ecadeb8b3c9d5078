package trace

// Native fuzz target for the GSB1 stream decoder: arbitrary bytes must
// either fail to decode with an error or yield users at the codec's
// fixed point — re-encoding them gives a stream that decodes to equal
// users and re-encodes to the same bytes (see the E7 note on the binary
// format).

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

// reencode writes ds with NewStreamWriter (via WriteBinary); a decoded
// dataset the writer rejects breaks the fixed point.
func reencode(t *testing.T, ds *Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ds.WriteBinary(&buf); err != nil {
		t.Fatalf("writer rejects a decoded stream: %v", err)
	}
	return buf.Bytes()
}

// sameUser reports whether a and b are equal, comparing the float
// fields by their bits so that NaNs compare like any other value.
func sameUser(a, b *User) bool {
	if math.Float64bits(a.Days) != math.Float64bits(b.Days) ||
		math.Float64bits(a.Profile.CheckinsPerDay) != math.Float64bits(b.Profile.CheckinsPerDay) {
		return false
	}
	ac, bc := *a, *b
	ac.Days, bc.Days = 0, 0
	ac.Profile.CheckinsPerDay, bc.Profile.CheckinsPerDay = 0, 0
	return reflect.DeepEqual(ac, bc)
}

func FuzzStreamDecode(f *testing.F) {
	bin, delta := shardFixture(f, 12, 30, 40)
	for _, raw := range [][]byte{bin, delta} {
		f.Add(raw)
		for _, n := range []int{0, 4, len(raw) / 3, len(raw) - 1} {
			f.Add(raw[:n])
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		ds, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		once := reencode(t, ds)
		ds2, err := ReadBinary(bytes.NewReader(once))
		if err != nil {
			t.Fatalf("re-encoded stream does not decode: %v", err)
		}
		if ds2.Name != ds.Name || len(ds2.Users) != len(ds.Users) {
			t.Fatalf("re-decoded %q with %d users, want %q with %d", ds2.Name, len(ds2.Users), ds.Name, len(ds.Users))
		}
		for i := range ds.Users {
			if !sameUser(ds.Users[i], ds2.Users[i]) {
				t.Fatalf("user %d changed across a round trip:\n%+v\n%+v", i, ds.Users[i], ds2.Users[i])
			}
		}
		if twice := reencode(t, ds2); !bytes.Equal(twice, once) {
			t.Fatalf("second re-encoding differs (%d vs %d bytes)", len(twice), len(once))
		}
	})
}
