package subjob

// DecodeDelta parses an encoded delta checkpoint.
func DecodeDelta(b []byte) (*Delta, error) {
	d := &Delta{}
	if err := decodeDelta(b, d, nil); err != nil {
		return nil, err
	}
	return d, nil
}
