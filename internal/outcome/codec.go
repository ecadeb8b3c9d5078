package outcome

// GSO1 record codec over the internal/wire primitives. See the package
// comment for the byte-level layout.

import (
	"fmt"

	"geosocial/internal/classify"
	"geosocial/internal/detect"
	"geosocial/internal/levy"
	"geosocial/internal/trace"
	"geosocial/internal/wire"
)

// logMagic identifies the outcome-log format ("GeoSocial Outcomes").
var logMagic = [4]byte{'G', 'S', 'O', '1'}

// logVersion is the current header version.
const logVersion = 1

const (
	// maxRecordBytes caps a single record.
	maxRecordBytes = 1 << 28
	// maxKindCount bounds the header kind count: kinds are stored as
	// single bytes, so anything larger is structurally impossible.
	maxKindCount = 256
	// allocHint caps speculative slice preallocation from untrusted
	// counts; slices grow past it by appending.
	allocHint = 1 << 16
)

// encodeFlights writes one Levy flight block as two float64 columns.
func encodeFlights(e *wire.Enc, fl []levy.Flight) {
	e.Uvarint(uint64(len(fl)))
	for _, f := range fl {
		e.F64(f.Dist)
	}
	for _, f := range fl {
		e.F64(f.Time)
	}
}

// encodeRecord appends the record's payload to e. The record must have
// passed validate.
func encodeRecord(e *wire.Enc, r *Record) error {
	e.Varint(int64(r.UserID))
	e.Varint(int64(r.Profile.Friends))
	e.Varint(int64(r.Profile.Badges))
	e.Varint(int64(r.Profile.Mayors))
	e.F64(r.Profile.CheckinsPerDay)
	e.Uvarint(uint64(r.Visits))
	e.Uvarint(uint64(r.Missing))

	e.Uvarint(uint64(len(r.Times)))
	var prev int64
	for i, t := range r.Times {
		if i == 0 {
			e.Varint(t)
		} else {
			if t < prev {
				return fmt.Errorf("outcome: user %d: checkin %d out of order", r.UserID, i)
			}
			e.Uvarint(uint64(t - prev))
		}
		prev = t
	}
	for _, k := range r.Kinds {
		e.Byte(byte(k))
	}
	for _, l := range r.Truth {
		trace.EncodeLabel(e, l)
	}
	for j := 0; j < detect.FeatureDim; j++ {
		for i := range r.Features {
			e.F64(r.Features[i][j])
		}
	}
	encodeFlights(e, r.GPSFlights)
	encodeFlights(e, r.HonestFlights)
	encodeFlights(e, r.AllFlights)
	e.Uvarint(uint64(len(r.Pauses)))
	for _, p := range r.Pauses {
		e.F64(p)
	}
	return nil
}

// EncodeRecord returns one record's GSO1 payload encoding (the bytes a
// log stores length-prefixed), validating it first. This is the unit
// the checkpoint store persists per user; DecodeRecord reverses it.
func EncodeRecord(r *Record) ([]byte, error) {
	var e wire.Enc
	if err := appendRecord(&e, r); err != nil {
		return nil, err
	}
	return e.Buf, nil
}

// appendRecord validates r and appends its payload to e, enforcing the
// record size limit. Writer.Write and EncodeRecord share it.
func appendRecord(e *wire.Enc, r *Record) error {
	if err := r.validate(classify.NumKinds); err != nil {
		return err
	}
	if err := encodeRecord(e, r); err != nil {
		return err
	}
	if len(e.Buf) > maxRecordBytes {
		return fmt.Errorf("outcome: record for user %d exceeds %d bytes", r.UserID, maxRecordBytes)
	}
	return nil
}

// DecodeRecord decodes and validates one payload produced by
// EncodeRecord (or stored in a current-version log).
func DecodeRecord(data []byte) (*Record, error) {
	return decodeRecord(data, classify.NumKinds)
}

// decodeFlights reads one Levy flight block (nil when empty — decoded
// records are in canonical form, see canon).
func decodeFlights(d *wire.Dec) []levy.Flight {
	n := d.Uvarint()
	if d.Err() != nil || n == 0 {
		return nil
	}
	out := make([]levy.Flight, 0, min(n, allocHint))
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		out = append(out, levy.Flight{Dist: d.F64()})
	}
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		out[i].Time = d.F64()
	}
	return out
}

// decodeRecord decodes and validates one record payload against the
// header's kind count. The feature dimension is fixed at
// detect.FeatureDim (the reader rejects headers with any other value).
func decodeRecord(data []byte, kindCount int) (*Record, error) {
	d := wire.NewDec(data, "outcome: record")
	r := &Record{}
	r.UserID = int(d.Varint())
	r.Profile.Friends = int(d.Varint())
	r.Profile.Badges = int(d.Varint())
	r.Profile.Mayors = int(d.Varint())
	r.Profile.CheckinsPerDay = d.F64()
	r.Visits = int(d.Uvarint())
	r.Missing = int(d.Uvarint())

	nCk := d.Uvarint()
	if d.Err() == nil && nCk > 0 {
		r.Times = make([]int64, 0, min(nCk, allocHint))
		var t int64
		for i := uint64(0); i < nCk && d.Err() == nil; i++ {
			if i == 0 {
				t = d.Varint()
			} else {
				t += int64(d.Uvarint())
			}
			r.Times = append(r.Times, t)
		}
		r.Kinds = make([]classify.Kind, 0, min(nCk, allocHint))
		for i := uint64(0); i < nCk && d.Err() == nil; i++ {
			r.Kinds = append(r.Kinds, classify.Kind(d.Byte()))
		}
		r.Truth = make([]trace.Label, 0, min(nCk, allocHint))
		for i := uint64(0); i < nCk && d.Err() == nil; i++ {
			r.Truth = append(r.Truth, trace.DecodeLabel(&d))
		}
		if d.Err() == nil {
			// The columns are fixed-width, so bound the allocation by the
			// bytes actually present before trusting the untrusted count.
			if need := nCk * detect.FeatureDim * 8; uint64(d.Left()) < need {
				d.Fail("%d checkins claim %d feature bytes, %d remain", nCk, need, d.Left())
			} else {
				r.Features = make([][detect.FeatureDim]float64, nCk)
				for j := 0; j < detect.FeatureDim && d.Err() == nil; j++ {
					for i := uint64(0); i < nCk && d.Err() == nil; i++ {
						r.Features[i][j] = d.F64()
					}
				}
			}
		}
	}
	r.GPSFlights = decodeFlights(&d)
	r.HonestFlights = decodeFlights(&d)
	r.AllFlights = decodeFlights(&d)
	nP := d.Uvarint()
	if d.Err() == nil && nP > 0 {
		r.Pauses = make([]float64, 0, min(nP, allocHint))
		for i := uint64(0); i < nP && d.Err() == nil; i++ {
			r.Pauses = append(r.Pauses, d.F64())
		}
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if d.Left() != 0 {
		return nil, fmt.Errorf("outcome: record for user %d has %d trailing bytes", r.UserID, d.Left())
	}
	if err := r.validate(kindCount); err != nil {
		return nil, err
	}
	return r, nil
}
