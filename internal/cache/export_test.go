package cache

// TagBytes returns an estimate of the tag storage this cache requires,
// assuming 4-byte tag+state entries per line (the paper reports 1.125 KB
// for a 64 KB cache and up to 7.125 KB for a fully cache-configured 384 KB
// unified memory; the constant below reproduces those totals: 18 bits of
// tag + state per 128-byte line).
func (c *Cache) TagBytes() int {
	lines := c.sets * c.ways
	return lines * 18 / 8
}
