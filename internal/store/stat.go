package store

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
)

// StatInfo summarizes an on-disk artifact from its header and footer
// alone.
type StatInfo struct {
	Path     string
	Format   int // envelope version, as stored
	ShapeKey string
	FileSize int64

	Inputs      int64
	Gates       int64
	Groups      int64
	Outputs     int64
	StoredEdges int64
	Depth       int64

	Segments   int    // integrity segments in the directory
	RootDigest string // hex SHA-256 root, as stored
}

// Stat reports an artifact's identity and dimensions by reading a few
// kilobytes — the header and the fixed footer — regardless of artifact
// size: no full read, no decode, no checksum pass. Values are reported
// as stored; Stat identifies, Load verifies.
func Stat(path string) (StatInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return StatInfo{}, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return StatInfo{}, fmt.Errorf("store: %w", err)
	}
	info := StatInfo{Path: path, FileSize: fi.Size()}
	if info.FileSize < tcs2TailLen {
		return info, fmt.Errorf("%w: %d bytes is shorter than any TCS2 envelope", ErrCorrupt, info.FileSize)
	}
	hdr, err := statReadAt(f, 0, 12)
	if err != nil {
		return info, err
	}
	if string(hdr[:4]) != tcs2Magic {
		return info, fmt.Errorf("%w: unrecognized magic %q", ErrCorrupt, hdr[:4])
	}
	tail, err := statReadAt(f, info.FileSize-tcs2TailLen, tcs2TailLen)
	if err != nil {
		return info, err
	}
	if string(tail[tcs2TailLen-4:]) != tcs2TailMagic {
		return info, fmt.Errorf("%w: bad tail magic", ErrCorrupt)
	}
	info.RootDigest = hex.EncodeToString(tail[:32])
	info.Segments = int(binary.LittleEndian.Uint32(tail[48:]))

	info.Format = int(binary.LittleEndian.Uint32(hdr[4:]))
	keyLen := int64(binary.LittleEndian.Uint32(hdr[8:]))
	if keyLen > 1<<16 || 12+keyLen+tcs2CountsLen > info.FileSize {
		return info, fmt.Errorf("%w: implausible key length %d", ErrCorrupt, keyLen)
	}
	buf, err := statReadAt(f, 12, keyLen+tcs2CountsLen)
	if err != nil {
		return info, err
	}
	info.ShapeKey = string(buf[:keyLen])
	counts := buf[keyLen:]
	u := func(i int) int64 { return int64(binary.LittleEndian.Uint64(counts[8*i:])) }
	info.Inputs, info.Gates, info.Groups, info.Outputs = u(0), u(1), u(2), u(3)
	info.StoredEdges, info.Depth = u(4), u(5)
	return info, nil
}

func statReadAt(f *os.File, off, n int64) ([]byte, error) {
	buf := make([]byte, n)
	if _, err := f.ReadAt(buf, off); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("%w: header truncated", ErrCorrupt)
		}
		return nil, fmt.Errorf("store: %w", err)
	}
	return buf, nil
}
