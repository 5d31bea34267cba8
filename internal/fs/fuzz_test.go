package fs

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDecodeRecords drives the record-batch decoder — the one place
// the backups parse bytes a peer chose — with the shapes the fault
// planes and a hostile peer produce: valid batches, single-bit flips,
// every truncation, and counts or lengths the input cannot back.
func FuzzDecodeRecords(f *testing.F) {
	recs := codecBatch(f)
	var batches [][]byte
	for _, b := range [][]Record{recs[:12], recs[12:13], recs[len(recs)-3 : len(recs)-1], nil} {
		enc, err := EncodeRecords(b)
		if err != nil {
			f.Fatal(err)
		}
		batches = append(batches, enc)
	}
	for _, enc := range batches {
		f.Add(enc)
		for off := 0; off < len(enc); off++ {
			flipped := append([]byte(nil), enc...)
			flipped[off] ^= 1 << uint(off%8)
			f.Add(flipped)
		}
	}
	one := batches[1]
	for cut := 0; cut < len(one); cut++ {
		f.Add(one[:cut])
	}
	hostileCount := append([]byte(nil), one...)
	binary.BigEndian.PutUint32(hostileCount[2:], 0xFFFFFFFF)
	f.Add(hostileCount)
	// The first record's Path length prefix sits after the version, the
	// count and the Seq and Op values.
	hostileLen := append([]byte(nil), one...)
	binary.BigEndian.PutUint32(hostileLen[1+5+9+9+1:], 0xFFFFFFFF)
	f.Add(hostileLen)

	f.Fuzz(func(t *testing.T, in []byte) {
		// The engine owns in; scribble only over a private copy.
		data := append([]byte(nil), in...)
		recs, err := DecodeRecords(data)
		if err != nil {
			return // rejected is fine; panicking or over-allocating is not
		}
		enc, err := EncodeRecords(recs)
		if err != nil {
			t.Fatalf("re-encode of an accepted batch failed: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("accepted batch does not re-encode byte-identically:\n got %x\nwant %x", enc, data)
		}
		// No decoded record may alias the input: scribbling over it must
		// change neither any record's checksum verdict nor its encoding.
		verifies := make([]bool, len(recs))
		for i, r := range recs {
			verifies[i] = r.Sum == recordSum(r)
		}
		for i := range data {
			data[i] ^= 0xA5
		}
		for i, r := range recs {
			if (r.Sum == recordSum(r)) != verifies[i] {
				t.Fatalf("record %d's checksum verdict changed with the input bytes", i)
			}
		}
		if again, _ := EncodeRecords(recs); !bytes.Equal(again, enc) {
			t.Fatal("decoded records alias the input")
		}
	})
}
