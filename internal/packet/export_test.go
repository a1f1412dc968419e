package packet

// FillSym exposes fill's symbol table to the external tests, which may
// import packages that import packet.
var FillSym = &fillSym
