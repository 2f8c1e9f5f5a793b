// Package lz implements a fast byte-oriented LZ77 codec of the Snappy
// family, used as the software *lossless* compression baseline of the
// paper's Fig. 7. Like Snappy it favours speed over ratio: greedy matching
// against a small hash table, byte-aligned output, no entropy coding.
//
// The paper's observation — reproduced by the Fig. 7 experiment — is that
// float32 gradient streams are nearly incompressible for this codec family
// (ratio ≈ 1.5 at best) while still costing significant CPU time.
//
// Wire format:
//
//	uvarint  decompressed length
//	elements until exhausted:
//	  literal: tagByte = (n-1)<<2 | 0x00 for n in 1..64, followed by n bytes
//	           (longer literals are emitted as repeated elements)
//	  copy:    tagByte = 0x01, then uvarint offset (>=1), uvarint length (>=4)
package lz

import (
	"encoding/binary"
	"errors"
	"fmt"
)

const (
	tagLiteral = 0x00
	tagCopy    = 0x01

	minMatch    = 4
	maxLiteral  = 64
	hashBits    = 14
	hashShift   = 32 - hashBits
	maxTableLen = 1 << hashBits
)

// ErrCorrupt is returned by Decode for malformed input.
var ErrCorrupt = errors.New("lz: corrupt input")

func hash4(u uint32) uint32 {
	return (u * 0x1e35a7bd) >> hashShift
}

func load32(b []byte, i int) uint32 {
	return binary.LittleEndian.Uint32(b[i:])
}

// Encode compresses src, appending to dst (which may be nil).
func Encode(dst, src []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(src)))
	if len(src) == 0 {
		return dst
	}

	var table [maxTableLen]int32
	for i := range table {
		table[i] = -1
	}

	emitLiteral := func(lit []byte) {
		for len(lit) > 0 {
			n := len(lit)
			if n > maxLiteral {
				n = maxLiteral
			}
			dst = append(dst, byte(n-1)<<2|tagLiteral)
			dst = append(dst, lit[:n]...)
			lit = lit[n:]
		}
	}

	litStart := 0
	i := 0
	for i+minMatch <= len(src) {
		h := hash4(load32(src, i))
		cand := table[h]
		table[h] = int32(i)
		if cand < 0 || load32(src, int(cand)) != load32(src, i) {
			i++
			continue
		}
		// Extend the match.
		matchLen := minMatch
		for i+matchLen < len(src) && src[int(cand)+matchLen] == src[i+matchLen] {
			matchLen++
		}
		emitLiteral(src[litStart:i])
		dst = append(dst, tagCopy)
		dst = binary.AppendUvarint(dst, uint64(i-int(cand)))
		dst = binary.AppendUvarint(dst, uint64(matchLen))
		// Index a few positions inside the match to keep finding matches.
		end := i + matchLen
		for j := i + 1; j < end && j+minMatch <= len(src); j += 7 {
			table[hash4(load32(src, j))] = int32(j)
		}
		i = end
		litStart = i
	}
	emitLiteral(src[litStart:])
	return dst
}

// Decode decompresses src, appending to dst (which may be nil).
func Decode(dst, src []byte) ([]byte, error) {
	want, n := binary.Uvarint(src)
	if n <= 0 {
		return nil, ErrCorrupt
	}
	src = src[n:]
	base := len(dst)
	for len(src) > 0 {
		tag := src[0]
		src = src[1:]
		switch tag & 0x03 {
		case tagLiteral:
			litLen := int(tag>>2) + 1
			if len(src) < litLen {
				return nil, fmt.Errorf("%w: literal of %d bytes, %d remain", ErrCorrupt, litLen, len(src))
			}
			dst = append(dst, src[:litLen]...)
			src = src[litLen:]
		case tagCopy:
			off, n1 := binary.Uvarint(src)
			if n1 <= 0 {
				return nil, ErrCorrupt
			}
			length, n2 := binary.Uvarint(src[n1:])
			if n2 <= 0 {
				return nil, ErrCorrupt
			}
			src = src[n1+n2:]
			pos := len(dst) - int(off)
			if off == 0 || pos < base || length < minMatch {
				return nil, fmt.Errorf("%w: copy offset %d length %d at %d", ErrCorrupt, off, length, len(dst))
			}
			// Byte-at-a-time: copies may overlap the output (RLE-style).
			for j := 0; j < int(length); j++ {
				dst = append(dst, dst[pos+j])
			}
		default:
			return nil, fmt.Errorf("%w: tag %#x", ErrCorrupt, tag)
		}
	}
	if len(dst)-base != int(want) {
		return nil, fmt.Errorf("%w: decoded %d bytes, header says %d", ErrCorrupt, len(dst)-base, want)
	}
	return dst, nil
}
