package sqldb

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The primary-key encoding: each PK value becomes a self-delimiting
// byte string whose bytewise order is the value order of its kind, and
// a composite key is the concatenation of its parts. Two properties
// follow that the index relies on: comparing keys compares PK tuples
// column by column, and the rows that share leading PK values are
// exactly the keys that share the encoded prefix.
//
// A part is a tag byte and a payload. NULL has the lowest tag, so it
// sorts first, as compareValues orders it. Numbers are fixed-width
// big-endian with the sign folded into the top bit (and every NaN
// below -Inf); text is
// terminated, with embedded zero bytes escaped so that no value can
// run into the next part.
const (
	tagNull  = 0x01
	tagInt   = 0x02
	tagFloat = 0x03
	tagText  = 0x04
	tagOther = 0x05
)

// appendKey appends the encoded primary key of row.
func (t *Table) appendKey(buf []byte, row []Value) []byte {
	for _, c := range t.PK {
		buf = appendKeyPart(buf, row[c])
	}
	return buf
}

// appendKeyPart appends the encoding of one PK value.
func appendKeyPart(buf []byte, v Value) []byte {
	switch x := v.(type) {
	case nil:
		return append(buf, tagNull)
	case int64:
		return appendIntKey(buf, x)
	case float64:
		if x == 0 {
			x = 0 // -0 and +0 compare equal, so they share a key
		}
		bits := math.Float64bits(x)
		switch {
		case x != x:
			bits = 0 // every NaN: below -Inf, as compareValues orders it
		case bits&(1<<63) != 0:
			bits = ^bits // negatives: larger magnitude sorts lower
		default:
			bits |= 1 << 63
		}
		return binary.BigEndian.AppendUint64(append(buf, tagFloat), bits)
	case string:
		return appendTextKey(append(buf, tagText), x)
	default:
		// Rows hold only the four kinds above (coerce); anything else
		// still gets a deterministic key.
		return appendTextKey(append(buf, tagOther), fmt.Sprintf("%T:%v", x, x))
	}
}

// appendIntKey is the int64 case of appendKeyPart, callable without
// boxing the value (the point-access paths of point.go).
func appendIntKey(buf []byte, x int64) []byte {
	return binary.BigEndian.AppendUint64(append(buf, tagInt), uint64(x)^(1<<63))
}

// appendTextKey writes s with each zero byte as 00 FF and closes with
// 00 01: the terminator sorts below every continuation, so a string
// sorts before its extensions, and an embedded zero cannot be mistaken
// for the end.
func appendTextKey(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if s[i] == 0 {
			buf = append(buf, 0, 0xff)
		} else {
			buf = append(buf, s[i])
		}
	}
	return append(buf, 0, 1)
}

// keyValue converts v to column kind k for a key bound: a pinned
// equality value or a range bound. It fails where coerce does, and
// also where the key order would not be compareValues' order against
// the column's values, so that no walk skips a row rowMatches would
// take: for an INT column, a float of magnitude 2^53 or more, beyond
// which compareValues' float64 comparison merges neighbouring integers.
func keyValue(v Value, k Kind) (Value, bool) {
	if f, ok := v.(float64); ok && k == KindInt && math.Abs(f) >= 1<<53 {
		return nil, false
	}
	v, err := coerce(v, k)
	return v, err == nil
}

// keyEnd turns the key prefix k, in place, into the least key above
// every key that starts with it: trailing 0xFF bytes go and the last
// byte left is incremented. An encoded part starts with a tag below
// 0xFF, so a prefix of whole parts always keeps one.
func keyEnd(k []byte) []byte {
	for k[len(k)-1] == 0xff {
		k = k[:len(k)-1]
	}
	k[len(k)-1]++
	return k
}
