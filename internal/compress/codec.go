package compress

import (
	"encoding/binary"
	"fmt"
)

// The wire codec serializes an encoded column into one contiguous
// image so the device path can ship compressed bytes over the bus and
// cache them device-side. The frame is self-describing:
//
//	byte  0     encoding
//	byte  1     FOR delta width (0 otherwise)
//	bytes 2-3   element size, uint16 LE
//	bytes 4-7   element count, uint32 LE
//	bytes 8-    encoding payload:
//	  Raw   raw bytes (n·size)
//	  RLE   run count uint32, run values (runs·size), run ends (runs·4)
//	  Dict  dict byte length uint32, dict bytes, codes (n)
//	  FOR   frame base int64, deltas (n·width)
//
// The frame length is CompressedBytes() plus a constant few bytes of
// header, so "bus cost = compressed bytes" holds to within the header.

const codecHeader = 8

// MarshaledBytes returns the exact length Marshal will produce.
func (c *Column) MarshaledBytes() int {
	n := codecHeader
	switch c.enc {
	case Raw:
		n += len(c.raw)
	case RLE:
		n += 4 + len(c.runVals) + len(c.runEnds)
	case Dict:
		n += 4 + len(c.dict) + len(c.codes)
	case FOR:
		n += 8 + len(c.deltas)
	}
	return n
}

// Marshal serializes the column into a fresh contiguous image.
func (c *Column) Marshal() []byte {
	out := make([]byte, codecHeader, c.MarshaledBytes())
	out[0] = byte(c.enc)
	out[1] = byte(c.width)
	binary.LittleEndian.PutUint16(out[2:], uint16(c.size))
	binary.LittleEndian.PutUint32(out[4:], uint32(c.n))
	switch c.enc {
	case Raw:
		out = append(out, c.raw...)
	case RLE:
		out = binary.LittleEndian.AppendUint32(out, uint32(c.Runs()))
		out = append(out, c.runVals...)
		out = append(out, c.runEnds...)
	case Dict:
		out = binary.LittleEndian.AppendUint32(out, uint32(len(c.dict)))
		out = append(out, c.dict...)
		out = append(out, c.codes...)
	case FOR:
		out = binary.LittleEndian.AppendUint64(out, uint64(c.base))
		out = append(out, c.deltas...)
	}
	return out
}

// Decode reconstructs a column from a Marshal image. The payload slices
// alias data; callers that mutate data must copy first. Decode is a thin
// shell around the validation so that it inlines: a caller that only
// runs operators over the column (the device's kernels, once per launch)
// keeps it on its stack.
func Decode(data []byte) (*Column, error) {
	c := new(Column)
	if err := c.decode(data); err != nil {
		return nil, err
	}
	return c, nil
}

// decode validates a Marshal image and points c at its payload. Images
// are untrusted bytes: whatever passes here must be safe for every
// operator, whose loops index the payload without further checks.
func (c *Column) decode(data []byte) error {
	if len(data) < codecHeader {
		return fmt.Errorf("%w: %d-byte image below %d-byte header", ErrBadInput, len(data), codecHeader)
	}
	c.enc = Encoding(data[0])
	c.width = int(data[1])
	c.size = int(binary.LittleEndian.Uint16(data[2:]))
	c.n = int(binary.LittleEndian.Uint32(data[4:]))
	if c.size <= 0 || c.n < 0 {
		return fmt.Errorf("%w: %d elements of %d bytes", ErrBadInput, c.n, c.size)
	}
	body := data[codecHeader:]
	switch c.enc {
	case Raw:
		if len(body) < c.n*c.size {
			return fmt.Errorf("%w: raw payload truncated", ErrBadInput)
		}
		c.raw = body[:c.n*c.size]
	case RLE:
		if len(body) < 4 {
			return fmt.Errorf("%w: rle payload truncated", ErrBadInput)
		}
		runs := int(binary.LittleEndian.Uint32(body))
		body = body[4:]
		if runs < 0 || len(body) < runs*c.size+runs*4 {
			return fmt.Errorf("%w: rle payload truncated", ErrBadInput)
		}
		c.runVals = body[:runs*c.size]
		c.runEnds = body[runs*c.size : runs*c.size+runs*4]
		// Every run is non-empty and the runs tile [0, n) exactly: the
		// operators take end-start as a length and index by it.
		start := 0
		for k := 0; k < runs; k++ {
			end := c.runEnd(k)
			if end <= start || end > c.n {
				return fmt.Errorf("%w: rle run %d ends at %d after %d, of %d elements", ErrBadInput, k, end, start, c.n)
			}
			start = end
		}
		if start != c.n {
			return fmt.Errorf("%w: rle run ends do not cover %d elements", ErrBadInput, c.n)
		}
	case Dict:
		if len(body) < 4 {
			return fmt.Errorf("%w: dict payload truncated", ErrBadInput)
		}
		dictLen := int(binary.LittleEndian.Uint32(body))
		body = body[4:]
		if dictLen < 0 || dictLen%c.size != 0 || dictLen/c.size > 256 || len(body) < dictLen+c.n {
			return fmt.Errorf("%w: dict payload truncated", ErrBadInput)
		}
		c.dict = body[:dictLen]
		c.codes = body[dictLen : dictLen+c.n]
		for _, code := range c.codes {
			if int(code)*c.size >= dictLen {
				return fmt.Errorf("%w: dict code %d out of table", ErrBadInput, code)
			}
		}
	case FOR:
		if c.size != 8 || (c.width != 1 && c.width != 2 && c.width != 4 && !(c.n == 0 && c.width == 0)) {
			return fmt.Errorf("%w: for frame with width %d size %d", ErrBadInput, c.width, c.size)
		}
		if len(body) < 8+c.n*c.width {
			return fmt.Errorf("%w: for payload truncated", ErrBadInput)
		}
		c.base = int64(binary.LittleEndian.Uint64(body))
		c.deltas = body[8 : 8+c.n*c.width]
	default:
		return fmt.Errorf("%w: unknown encoding %d", ErrBadInput, data[0])
	}
	return nil
}
