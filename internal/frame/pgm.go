package frame

import (
	"bufio"
	"fmt"
	"io"
	"os"
)

// WritePGM writes the frame as a binary (P5) PGM image, clamping samples to
// 8 bits. PGM keeps the demo pipeline free of external image dependencies
// while remaining viewable everywhere.
func (f *Frame) WritePGM(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(f.AppendPGM(nil)); err != nil {
		return err
	}
	return bw.Flush()
}

// AppendPGM appends the complete binary (P5) PGM encoding — header and
// quantized pixels — to dst and returns the extended slice, so snapshot
// servers can reuse one encode buffer across requests instead of
// allocating a fresh byte slice per frame.
func (f *Frame) AppendPGM(dst []byte) []byte {
	dst = fmt.Appendf(dst, "P5\n%d %d\n255\n", f.W, f.H)
	return f.AppendBytes(dst)
}

// SavePGM writes the frame to the named file.
func (f *Frame) SavePGM(path string) error {
	fd, err := os.Create(path)
	if err != nil {
		return err
	}
	defer fd.Close()
	if err := f.WritePGM(fd); err != nil {
		return err
	}
	return fd.Close()
}

// maxPGMPixels bounds the pixel count ReadPGM accepts.
const maxPGMPixels = 1 << 28

// ReadPGM parses a binary (P5) PGM image.
func ReadPGM(r io.Reader) (*Frame, error) {
	br := bufio.NewReader(r)
	var magic string
	if _, err := fmt.Fscan(br, &magic); err != nil {
		return nil, fmt.Errorf("frame.ReadPGM: %w", err)
	}
	if magic != "P5" {
		return nil, fmt.Errorf("frame.ReadPGM: bad magic %q", magic)
	}
	var w, h, maxv int
	if _, err := fmt.Fscan(br, &w, &h, &maxv); err != nil {
		return nil, fmt.Errorf("frame.ReadPGM: header: %w", err)
	}
	if maxv != 255 {
		return nil, fmt.Errorf("frame.ReadPGM: unsupported maxval %d", maxv)
	}
	// Bound the size by division: w*h itself wraps for huge headers.
	if w <= 0 || h <= 0 || w > maxPGMPixels/h {
		return nil, fmt.Errorf("frame.ReadPGM: implausible size %dx%d", w, h)
	}
	// Exactly one whitespace byte separates the header from pixel data.
	if _, err := br.ReadByte(); err != nil {
		return nil, fmt.Errorf("frame.ReadPGM: %w", err)
	}
	// Read what the stream holds rather than allocating the declared size
	// up front, so a short header cannot reserve a huge buffer.
	b, err := io.ReadAll(io.LimitReader(br, int64(w*h)))
	if err != nil {
		return nil, fmt.Errorf("frame.ReadPGM: pixels: %w", err)
	}
	if len(b) < w*h {
		return nil, fmt.Errorf("frame.ReadPGM: pixels: %w", io.ErrUnexpectedEOF)
	}
	return FromBytes(w, h, b)
}

// LoadPGM reads the named PGM file.
func LoadPGM(path string) (*Frame, error) {
	fd, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fd.Close()
	return ReadPGM(fd)
}
