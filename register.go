package cmap

// The protocol packages register their spec families with internal/mac
// from init; the façade resolves every station by spec alone. csma is
// also imported by name, for its broadcast address.
import _ "repro/internal/core"
