// Package isa defines the virtual instruction set executed by the
// simulated kernel (internal/kernel) and produced by the assembler
// (internal/asm).
//
// The ISA is deliberately x86-flavoured where DynaCut depends on x86
// properties: instructions are variable length, and INT3 (0xCC), NOP
// (0x90) and RET (0xC3) are single-byte opcodes, so a process rewriter
// can overwrite exactly one byte to turn the head of a basic block
// into a breakpoint, and can wipe arbitrary byte ranges without
// worrying about alignment.
//
// Registers: 16 general-purpose 64-bit registers r0..r15.
// Conventions (enforced only by the toolchain, not the hardware):
//
//	r0       return value and syscall number
//	r1..r5   arguments
//	r13      callee-saved scratch used by the PIC prologue
//	r14      PIC base register inside shared libraries
//	r15      stack pointer (SP); PUSH/POP/CALL/RET use it implicitly
//
// Flags: Z (zero) and L (signed less-than), set by CMP only.
// Branch offsets (rel32) are relative to the address of the *next*
// instruction, as on x86.
package isa

import "fmt"

// Register names the 16 general-purpose registers.
type Register uint8

// NumRegisters is the size of the general-purpose register file.
const NumRegisters = 16

// SP is the conventional stack pointer register.
const SP Register = 15

// String returns the assembler spelling of the register ("r0".."r15").
func (r Register) String() string {
	return fmt.Sprintf("r%d", uint8(r))
}

// Valid reports whether the register index is within the register file.
func (r Register) Valid() bool {
	return r < NumRegisters
}

// Opcode is the first byte of every instruction encoding.
type Opcode uint8

// Opcode space. Single-byte instructions reuse the x86 byte values the
// paper relies on (0xCC, 0x90, 0xC3) so that rewritten images look
// familiar in hex dumps.
const (
	OpMOVri Opcode = 0x01 // MOV  reg, imm64          [op reg imm64]      10 bytes
	OpMOVrr Opcode = 0x02 // MOV  dst, src            [op dst src]         3 bytes
	OpLOAD  Opcode = 0x03 // LOAD dst, [base+disp32]  [op dst base d32]    7 bytes
	OpSTORE Opcode = 0x04 // STORE [base+disp32], src [op src base d32]    7 bytes
	OpADDrr Opcode = 0x05 // ADD dst, src             [op dst src]         3 bytes
	OpSUBrr Opcode = 0x06
	OpMULrr Opcode = 0x07
	OpDIVrr Opcode = 0x08 // unsigned divide; divide by zero raises #DE
	OpANDrr Opcode = 0x09
	OpORrr  Opcode = 0x0A
	OpXORrr Opcode = 0x0B
	OpSHLrr Opcode = 0x0C
	OpSHRrr Opcode = 0x0D
	OpSYS   Opcode = 0x0F // SYSCALL                  [op]                 1 byte

	OpADDri Opcode = 0x10 // ADD dst, imm32 (sign-extended) [op dst i32]   6 bytes
	OpSUBri Opcode = 0x11
	OpMULri Opcode = 0x12
	OpANDri Opcode = 0x13
	OpORri  Opcode = 0x14
	OpXORri Opcode = 0x15
	OpSHLri Opcode = 0x16 // SHL dst, imm8            [op dst i8]          3 bytes
	OpSHRri Opcode = 0x17

	OpCMPrr Opcode = 0x20 // CMP a, b                 [op a b]             3 bytes
	OpCMPri Opcode = 0x21 // CMP a, imm32             [op a i32]           6 bytes

	OpJMP  Opcode = 0x30 // JMP rel32                  [op rel32]           5 bytes
	OpJE   Opcode = 0x31
	OpJNE  Opcode = 0x32
	OpJL   Opcode = 0x33
	OpJG   Opcode = 0x34
	OpJLE  Opcode = 0x35
	OpJGE  Opcode = 0x36
	OpJMPr Opcode = 0x38 // JMP reg (indirect)        [op reg]             2 bytes

	OpCALL  Opcode = 0x40 // CALL rel32               [op rel32]           5 bytes
	OpCALLr Opcode = 0x41 // CALL reg (indirect)      [op reg]             2 bytes

	OpPUSH Opcode = 0x50 // PUSH reg                  [op reg]             2 bytes
	OpPOP  Opcode = 0x51 // POP reg                   [op reg]             2 bytes

	OpLEA Opcode = 0x70 // LEA dst, rel32             [op dst rel32]       6 bytes
	//                      dst = address of next instruction + rel32
	//                      (RIP-relative; the PIC addressing primitive)

	OpLOADB  Opcode = 0x71 // LOADB dst, [base+disp32]  zero-extends 1 byte, 7 bytes
	OpSTOREB Opcode = 0x72 // STOREB [base+disp32], src  stores low byte,    7 bytes

	OpNOP  Opcode = 0x90 // 1 byte
	OpRET  Opcode = 0xC3 // 1 byte
	OpINT3 Opcode = 0xCC // 1 byte; raises SIGTRAP
	OpHLT  Opcode = 0xF4 // 1 byte; raises SIGSEGV (executing junk/wiped memory)
)

var opNames = map[Opcode]string{
	OpMOVri: "mov", OpMOVrr: "mov", OpLOAD: "load", OpSTORE: "store",
	OpADDrr: "add", OpSUBrr: "sub", OpMULrr: "mul", OpDIVrr: "div",
	OpANDrr: "and", OpORrr: "or", OpXORrr: "xor", OpSHLrr: "shl", OpSHRrr: "shr",
	OpSYS:   "syscall",
	OpADDri: "add", OpSUBri: "sub", OpMULri: "mul",
	OpANDri: "and", OpORri: "or", OpXORri: "xor", OpSHLri: "shl", OpSHRri: "shr",
	OpCMPrr: "cmp", OpCMPri: "cmp",
	OpJMP: "jmp", OpJE: "je", OpJNE: "jne", OpJL: "jl", OpJG: "jg",
	OpJLE: "jle", OpJGE: "jge", OpJMPr: "jmp",
	OpCALL: "call", OpCALLr: "call",
	OpPUSH: "push", OpPOP: "pop",
	OpLEA: "lea", OpLOADB: "loadb", OpSTOREB: "storeb",
	OpNOP: "nop", OpRET: "ret", OpINT3: "int3", OpHLT: "hlt",
}

// Name returns the assembler mnemonic for the opcode, or "db 0x??" for
// bytes that do not decode to an instruction.
func (op Opcode) Name() string {
	if n, ok := opNames[op]; ok {
		return n
	}
	return fmt.Sprintf("db 0x%02x", uint8(op))
}

// Length returns the encoded length in bytes of an instruction that
// starts with this opcode, or 0 if the opcode is undefined.
func (op Opcode) Length() int {
	switch op {
	case OpNOP, OpRET, OpINT3, OpHLT, OpSYS:
		return 1
	case OpJMPr, OpCALLr, OpPUSH, OpPOP:
		return 2
	case OpMOVrr, OpADDrr, OpSUBrr, OpMULrr, OpDIVrr,
		OpANDrr, OpORrr, OpXORrr, OpSHLrr, OpSHRrr,
		OpCMPrr, OpSHLri, OpSHRri:
		return 3
	case OpJMP, OpJE, OpJNE, OpJL, OpJG, OpJLE, OpJGE, OpCALL:
		return 5
	case OpADDri, OpSUBri, OpMULri, OpANDri, OpORri, OpXORri,
		OpCMPri, OpLEA:
		return 6
	case OpLOAD, OpSTORE, OpLOADB, OpSTOREB:
		return 7
	case OpMOVri:
		return 10
	default:
		return 0
	}
}

// IsBranch reports whether the opcode ends a basic block: any control
// transfer, trap, halt, or syscall boundary. The coverage tracer and
// the static disassembler both use this as the block-termination rule.
func (op Opcode) IsBranch() bool {
	switch op {
	case OpJMP, OpJE, OpJNE, OpJL, OpJG, OpJLE, OpJGE,
		OpJMPr, OpCALL, OpCALLr, OpRET, OpINT3, OpHLT:
		return true
	default:
		return false
	}
}

// IsCond reports whether the opcode is a conditional branch (has a
// fall-through successor in the CFG).
func (op Opcode) IsCond() bool {
	switch op {
	case OpJE, OpJNE, OpJL, OpJG, OpJLE, OpJGE:
		return true
	default:
		return false
	}
}

// Inst is one decoded instruction.
type Inst struct {
	Op   Opcode
	A    Register // first register operand (dst, or src for STORE)
	B    Register // second register operand (src, or base for LOAD/STORE)
	Imm  int64    // immediate / displacement / rel32 (sign-extended)
	Size int      // encoded length in bytes
}

// Target returns the absolute branch target of a direct control
// transfer located at addr, and whether the instruction has one.
func (in Inst) Target(addr uint64) (uint64, bool) {
	switch in.Op {
	case OpJMP, OpJE, OpJNE, OpJL, OpJG, OpJLE, OpJGE, OpCALL:
		return addr + uint64(in.Size) + uint64(in.Imm), true
	default:
		return 0, false
	}
}

// String renders the instruction in assembler syntax.
func (in Inst) String() string {
	switch in.Op {
	case OpNOP, OpRET, OpINT3, OpHLT, OpSYS:
		return in.Op.Name()
	case OpMOVri:
		return fmt.Sprintf("mov %s, %d", in.A, in.Imm)
	case OpMOVrr, OpADDrr, OpSUBrr, OpMULrr, OpDIVrr, OpANDrr,
		OpORrr, OpXORrr, OpSHLrr, OpSHRrr, OpCMPrr:
		return fmt.Sprintf("%s %s, %s", in.Op.Name(), in.A, in.B)
	case OpADDri, OpSUBri, OpMULri, OpANDri, OpORri, OpXORri,
		OpCMPri, OpSHLri, OpSHRri:
		return fmt.Sprintf("%s %s, %d", in.Op.Name(), in.A, in.Imm)
	case OpLOAD, OpLOADB:
		return fmt.Sprintf("%s %s, [%s%+d]", in.Op.Name(), in.A, in.B, in.Imm)
	case OpSTORE, OpSTOREB:
		return fmt.Sprintf("%s [%s%+d], %s", in.Op.Name(), in.B, in.Imm, in.A)
	case OpJMP, OpJE, OpJNE, OpJL, OpJG, OpJLE, OpJGE, OpCALL:
		return fmt.Sprintf("%s %+d", in.Op.Name(), in.Imm)
	case OpJMPr, OpCALLr:
		return fmt.Sprintf("%s %s", in.Op.Name(), in.A)
	case OpPUSH, OpPOP:
		return fmt.Sprintf("%s %s", in.Op.Name(), in.A)
	case OpLEA:
		return fmt.Sprintf("lea %s, %+d", in.A, in.Imm)
	default:
		return in.Op.Name()
	}
}
