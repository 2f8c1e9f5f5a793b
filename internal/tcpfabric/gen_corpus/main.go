// Command gen_corpus regenerates the checked-in fuzz seed corpus for
// FuzzFrameDecode (testdata/fuzz/FuzzFrameDecode). Run from the
// tcpfabric package directory: go run ./gen_corpus
package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func header(kind, tos, flags byte, seq, tag, count, payloadLen, bitLen, crc uint32) []byte {
	b := make([]byte, 32)
	binary.LittleEndian.PutUint32(b[0:], 0x494E4350)
	b[4], b[5], b[6] = kind, tos, flags
	binary.LittleEndian.PutUint32(b[8:], seq)
	binary.LittleEndian.PutUint32(b[12:], tag)
	binary.LittleEndian.PutUint32(b[16:], count)
	binary.LittleEndian.PutUint32(b[20:], payloadLen)
	binary.LittleEndian.PutUint32(b[24:], bitLen)
	binary.LittleEndian.PutUint32(b[28:], crc)
	return b
}

func main() {
	dir := filepath.Join("testdata", "fuzz", "FuzzFrameDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		panic(err)
	}
	rawBody := make([]byte, 8)
	binary.LittleEndian.PutUint32(rawBody[0:], 0x3FC00000) // 1.5
	binary.LittleEndian.PutUint32(rawBody[4:], 0xC0100000) // -2.25
	seeds := map[string][]byte{
		"valid_raw": append(
			header(0, 0, 0, 1, 7, 2, 8, 0, crc32.Checksum(rawBody, castagnoli)),
			rawBody...),
		"valid_compressed": append(
			header(0, 0x28, 1, 2, 9, 16, 8, 60, crc32.Checksum(make([]byte, 8), castagnoli)),
			make([]byte, 8)...),
		"valid_ack":          header(1, 0, 0, 3, 0, 0, 0, 0, 0),
		"valid_nack_wantraw": header(2, 0, 4, 4, 0, 0, 0, 0, 0),
		"hostile_lengths":    header(0, 0, 0, 0, 0, 1<<30, 1<<31, 0, 0),
		// Inside the caps, but a compressed stream of no bits cannot hold
		// 16M floats: 64 MiB of receiver allocation from 32 bytes of frame.
		"hostile_compressed_count": header(0, 0x28, 1, 5, 0, 1<<24, 0, 0, 0),
		"raw_size_mismatch":        header(0, 0, 0, 0, 0, 3, 8, 0, 0),
		"bad_kind":                 header(37, 0, 0, 0, 0, 0, 0, 0, 0),
		"truncated_header":         {0x50, 0x43, 0x4E, 0x49, 0x00},
	}
	badMagic := header(0, 0, 0, 0, 0, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(badMagic[0:], 0xDEADBEEF)
	seeds["bad_magic"] = badMagic
	reserved := header(1, 0, 0, 0, 0, 0, 0, 0, 0)
	reserved[7] = 0xFF
	seeds["nonzero_reserved"] = reserved

	for name, data := range seeds {
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data)))
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			panic(err)
		}
	}
	fmt.Printf("wrote %d corpus seeds to %s\n", len(seeds), dir)
}
