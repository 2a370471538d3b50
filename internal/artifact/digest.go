package artifact

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"math"
	"strconv"
)

// Hasher builds deterministic content digests from labeled fields. Each
// write is framed as "label\x00value\x00" so adjacent fields can never
// alias (("ab","c") vs ("a","bc")), and floats are hashed by their
// IEEE-754 bit pattern, so the digest is exact — no formatting rounding.
// The experiments package uses it for the Params digest; Table.Digest
// covers the artifact side.
type Hasher struct {
	h hash.Hash
}

// NewHasher returns an empty sha256-backed hasher.
func NewHasher() *Hasher {
	return &Hasher{h: sha256.New()}
}

func (h *Hasher) frame(label, value string) {
	h.write([]byte(label))
	h.write([]byte{0})
	h.write([]byte(value))
	h.write([]byte{0})
}

// write mixes raw bytes into the digest.
func (h *Hasher) write(b []byte) {
	h.h.Write(b) //lint:allow errflow hash.Hash.Write never returns an error by contract; TestHasherWriteNeverFails pins it
}

// String mixes a labeled string field.
func (h *Hasher) String(label, v string) { h.frame(label, v) }

// Uint mixes a labeled unsigned integer field.
func (h *Hasher) Uint(label string, v uint64) {
	h.frame(label, strconv.FormatUint(v, 10))
}

// Int mixes a labeled signed integer field.
func (h *Hasher) Int(label string, v int64) {
	h.frame(label, strconv.FormatInt(v, 10))
}

// Float mixes a labeled float field by exact bit pattern.
func (h *Hasher) Float(label string, v float64) {
	h.frame(label, strconv.FormatUint(math.Float64bits(v), 16))
}

// Strings mixes a labeled string-slice field, length-framed so slice
// boundaries can't alias either.
func (h *Hasher) Strings(label string, vs []string) {
	h.frame(label, strconv.Itoa(len(vs)))
	for i, v := range vs {
		h.frame(label+"["+strconv.Itoa(i)+"]", v)
	}
}

// Sum returns the hex digest of everything mixed so far.
func (h *Hasher) Sum() string {
	return hex.EncodeToString(h.h.Sum(nil))
}

// Digest returns the content hash of the table: sha256 over its
// canonical JSON encoding. Two tables digest equal iff their encoded
// forms are byte-identical, which is the property the store keys and
// the HTTP ETags rely on.
func (t *Table) Digest() (string, error) {
	b, err := marshalTable(t)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
