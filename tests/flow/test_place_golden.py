"""Golden placement fixture.

Each digest is a sha256 over one placement run: every slice and IOB site,
the move counts (``moves_attempted``, ``moves_accepted``) and the final
HPWL cost.  Together they pin the annealer's whole trajectory, not only
where it ended, so any change to the RNG stream, the move loop or the
acceptance rule shows here.

* The XCV50 designs are counters of width 4 and 8 at four seeds, one
  region-constrained counter and a width-6 flow with its guided re-run.
  ``GOLDEN_XCV50_INITIAL_COST`` also pins each one's initial (random)
  placement cost.
* The slow sweep covers all 36 XCV100 full-chip Figure-4 combinations
  at seeds 0, 3 and 11, and every guided Figure-4 module version at
  seeds 0 and 5 (each against a base placed at the same seed).  Each
  of its flows runs twice: placed fresh, then served from the flow
  cache, and both passes must match.

Regenerate the tables with ``PYTHONPATH=src python -m
tests.flow.test_place_golden`` — but only when a placement change is
intended.
"""

import hashlib

import pytest

from repro.baselines.fullflow import build_combination_netlist, enumerate_combinations
from repro.flow import run_flow
from repro.flow.floorplan import AreaGroup, Constraints, RegionRect
from repro.flow.pack import pack
from repro.flow.place import place
from repro.flow.techmap import techmap
from repro.workloads import (
    build_base_netlist,
    build_module_netlist,
    figure4_plan,
    flow_constraints,
    version_name,
)
from tests.conftest import build_counter_netlist

GOLDEN_XCV50 = {
    "counter4/seed1": "8dec1c0909b8ef3f13383ea2bc13cb72fa0ee42cb7faaf977916927bca30f304",
    "counter4/seed7": "d87bb99372948653441cf21921f26f76ae92f81186272ff3fdd91b441b12af2c",
    "counter4/seed9": "441f4b48c31706d7dfd2105a4db0363f0f69af864534eb3b134133658600c7fd",
    "counter4/seed42": "470ec91cffcf1e739a16119a618b2c22eaa3a1a1d643230298bd375c0842f20a",
    "counter8/seed1": "350fa4e94cecbc44bce88d9aadfc17206ca5f16be32b1f1a117b6e831fdd7b8a",
    "counter8/seed7": "b00183a6795dc267e6e246a08f2ac3dfae237796905947b91f3c2bf07aba88a2",
    "counter8/seed9": "374fa70d159ae3ed5f91b16bedd2376bfb8a8422cc49c7e7efcb8c92b8612293",
    "counter8/seed42": "fa337d84afe4096c61953077c89ac739b1ad9b5095017d0bf94894c459b7c27a",
    "counter8/region/seed3": "6c0b9910ec47a705bb556285962e53f59c19ae54101fbbcfe93266d1b82f435b",
    "flow6/seed2": "368b875b3998f8052dba3ab717b3610d520379585bc21f5c2666afb9f626d162",
    "flow6/guided/seed2": "af7e30bd2240a6eec851a3632ead76f090b26a40280885f94c2ccb68a411fdf5",
}

#: HPWL cost of each XCV50 design's initial (random) placement, before the
#: first move: pins the draws that seed the ``GOLDEN_XCV50`` runs.
GOLDEN_XCV50_INITIAL_COST = {
    "counter4/seed1": 90,
    "counter4/seed7": 130,
    "counter4/seed9": 114,
    "counter4/seed42": 72,
    "counter8/seed1": 259,
    "counter8/seed7": 249,
    "counter8/seed9": 210,
    "counter8/seed42": 244,
    "counter8/region/seed3": 205,
    "flow6/seed2": 173,
    "flow6/guided/seed2": 14,
}

GOLDEN_XCV100 = {
    "full/r1-up_r2-taps_a_r3-1111/seed0": "47085bfc7306bc8208e9350868cdac4c5811d370fe0668c0a4092a7e9a88e05d",
    "full/r1-up_r2-taps_a_r3-1010/seed0": "47085bfc7306bc8208e9350868cdac4c5811d370fe0668c0a4092a7e9a88e05d",
    "full/r1-up_r2-taps_a_r3-0101/seed0": "47085bfc7306bc8208e9350868cdac4c5811d370fe0668c0a4092a7e9a88e05d",
    "full/r1-up_r2-taps_a_r3-1000/seed0": "47085bfc7306bc8208e9350868cdac4c5811d370fe0668c0a4092a7e9a88e05d",
    "full/r1-up_r2-taps_b_r3-1111/seed0": "d456d937801836bbc11dbae952ca681adb558a3a178e1d7ef8318fb0bb79aba0",
    "full/r1-up_r2-taps_b_r3-1010/seed0": "d456d937801836bbc11dbae952ca681adb558a3a178e1d7ef8318fb0bb79aba0",
    "full/r1-up_r2-taps_b_r3-0101/seed0": "d456d937801836bbc11dbae952ca681adb558a3a178e1d7ef8318fb0bb79aba0",
    "full/r1-up_r2-taps_b_r3-1000/seed0": "d456d937801836bbc11dbae952ca681adb558a3a178e1d7ef8318fb0bb79aba0",
    "full/r1-up_r2-taps_c_r3-1111/seed0": "ea8ed0297d5fa94b4dd128b687712649fb024220a9cfcf06b4a620ad87fca7b5",
    "full/r1-up_r2-taps_c_r3-1010/seed0": "ea8ed0297d5fa94b4dd128b687712649fb024220a9cfcf06b4a620ad87fca7b5",
    "full/r1-up_r2-taps_c_r3-0101/seed0": "ea8ed0297d5fa94b4dd128b687712649fb024220a9cfcf06b4a620ad87fca7b5",
    "full/r1-up_r2-taps_c_r3-1000/seed0": "ea8ed0297d5fa94b4dd128b687712649fb024220a9cfcf06b4a620ad87fca7b5",
    "full/r1-down_r2-taps_a_r3-1111/seed0": "f0400ae7236c3986017c81f76fb40b702b01d33d01d948bd2a1defccc73b9915",
    "full/r1-down_r2-taps_a_r3-1010/seed0": "f0400ae7236c3986017c81f76fb40b702b01d33d01d948bd2a1defccc73b9915",
    "full/r1-down_r2-taps_a_r3-0101/seed0": "f0400ae7236c3986017c81f76fb40b702b01d33d01d948bd2a1defccc73b9915",
    "full/r1-down_r2-taps_a_r3-1000/seed0": "f0400ae7236c3986017c81f76fb40b702b01d33d01d948bd2a1defccc73b9915",
    "full/r1-down_r2-taps_b_r3-1111/seed0": "423f1fe955d2c4f21fc7055283679ac626f0918fc4eabd34c93550f678c9947e",
    "full/r1-down_r2-taps_b_r3-1010/seed0": "423f1fe955d2c4f21fc7055283679ac626f0918fc4eabd34c93550f678c9947e",
    "full/r1-down_r2-taps_b_r3-0101/seed0": "423f1fe955d2c4f21fc7055283679ac626f0918fc4eabd34c93550f678c9947e",
    "full/r1-down_r2-taps_b_r3-1000/seed0": "423f1fe955d2c4f21fc7055283679ac626f0918fc4eabd34c93550f678c9947e",
    "full/r1-down_r2-taps_c_r3-1111/seed0": "6fd0ecbeb824b6324f27c6ef74cffba9e84f0e7b07b90f2be8f0e0b82fdb1e63",
    "full/r1-down_r2-taps_c_r3-1010/seed0": "6fd0ecbeb824b6324f27c6ef74cffba9e84f0e7b07b90f2be8f0e0b82fdb1e63",
    "full/r1-down_r2-taps_c_r3-0101/seed0": "6fd0ecbeb824b6324f27c6ef74cffba9e84f0e7b07b90f2be8f0e0b82fdb1e63",
    "full/r1-down_r2-taps_c_r3-1000/seed0": "6fd0ecbeb824b6324f27c6ef74cffba9e84f0e7b07b90f2be8f0e0b82fdb1e63",
    "full/r1-step3_r2-taps_a_r3-1111/seed0": "fc23a8928dddc94d4662daec534e4c9f4fb5b0fa9036e2ca21529988c97cf1ee",
    "full/r1-step3_r2-taps_a_r3-1010/seed0": "fc23a8928dddc94d4662daec534e4c9f4fb5b0fa9036e2ca21529988c97cf1ee",
    "full/r1-step3_r2-taps_a_r3-0101/seed0": "fc23a8928dddc94d4662daec534e4c9f4fb5b0fa9036e2ca21529988c97cf1ee",
    "full/r1-step3_r2-taps_a_r3-1000/seed0": "fc23a8928dddc94d4662daec534e4c9f4fb5b0fa9036e2ca21529988c97cf1ee",
    "full/r1-step3_r2-taps_b_r3-1111/seed0": "ae6f2729248c36842fe4eaff9c78a9f70ef9ef2f2587173e42bc17dfc51fb4e8",
    "full/r1-step3_r2-taps_b_r3-1010/seed0": "ae6f2729248c36842fe4eaff9c78a9f70ef9ef2f2587173e42bc17dfc51fb4e8",
    "full/r1-step3_r2-taps_b_r3-0101/seed0": "ae6f2729248c36842fe4eaff9c78a9f70ef9ef2f2587173e42bc17dfc51fb4e8",
    "full/r1-step3_r2-taps_b_r3-1000/seed0": "ae6f2729248c36842fe4eaff9c78a9f70ef9ef2f2587173e42bc17dfc51fb4e8",
    "full/r1-step3_r2-taps_c_r3-1111/seed0": "b5b282f3d6041c61fc1316847cd783e60d3ae35755b43b5c01c7f54af9a0f43d",
    "full/r1-step3_r2-taps_c_r3-1010/seed0": "b5b282f3d6041c61fc1316847cd783e60d3ae35755b43b5c01c7f54af9a0f43d",
    "full/r1-step3_r2-taps_c_r3-0101/seed0": "b5b282f3d6041c61fc1316847cd783e60d3ae35755b43b5c01c7f54af9a0f43d",
    "full/r1-step3_r2-taps_c_r3-1000/seed0": "b5b282f3d6041c61fc1316847cd783e60d3ae35755b43b5c01c7f54af9a0f43d",
    "full/r1-up_r2-taps_a_r3-1111/seed3": "09ca6edf1bbcc24146ea3e2a68ed9bc37c406896b36582a5c4a432047333a765",
    "full/r1-up_r2-taps_a_r3-1010/seed3": "09ca6edf1bbcc24146ea3e2a68ed9bc37c406896b36582a5c4a432047333a765",
    "full/r1-up_r2-taps_a_r3-0101/seed3": "09ca6edf1bbcc24146ea3e2a68ed9bc37c406896b36582a5c4a432047333a765",
    "full/r1-up_r2-taps_a_r3-1000/seed3": "09ca6edf1bbcc24146ea3e2a68ed9bc37c406896b36582a5c4a432047333a765",
    "full/r1-up_r2-taps_b_r3-1111/seed3": "17c016379f17f66a7d26260c132f4edafc93518c17490e38d194fd8a6a54a929",
    "full/r1-up_r2-taps_b_r3-1010/seed3": "17c016379f17f66a7d26260c132f4edafc93518c17490e38d194fd8a6a54a929",
    "full/r1-up_r2-taps_b_r3-0101/seed3": "17c016379f17f66a7d26260c132f4edafc93518c17490e38d194fd8a6a54a929",
    "full/r1-up_r2-taps_b_r3-1000/seed3": "17c016379f17f66a7d26260c132f4edafc93518c17490e38d194fd8a6a54a929",
    "full/r1-up_r2-taps_c_r3-1111/seed3": "4e010368e2d3fddf87906f1ddd2606c5efdd9bdbc9b0d1b186ccb27b8a237201",
    "full/r1-up_r2-taps_c_r3-1010/seed3": "4e010368e2d3fddf87906f1ddd2606c5efdd9bdbc9b0d1b186ccb27b8a237201",
    "full/r1-up_r2-taps_c_r3-0101/seed3": "4e010368e2d3fddf87906f1ddd2606c5efdd9bdbc9b0d1b186ccb27b8a237201",
    "full/r1-up_r2-taps_c_r3-1000/seed3": "4e010368e2d3fddf87906f1ddd2606c5efdd9bdbc9b0d1b186ccb27b8a237201",
    "full/r1-down_r2-taps_a_r3-1111/seed3": "6b00ec491f21524aebea454618bc2dc206eded77ef1ff19cd6e131eb91e137f8",
    "full/r1-down_r2-taps_a_r3-1010/seed3": "6b00ec491f21524aebea454618bc2dc206eded77ef1ff19cd6e131eb91e137f8",
    "full/r1-down_r2-taps_a_r3-0101/seed3": "6b00ec491f21524aebea454618bc2dc206eded77ef1ff19cd6e131eb91e137f8",
    "full/r1-down_r2-taps_a_r3-1000/seed3": "6b00ec491f21524aebea454618bc2dc206eded77ef1ff19cd6e131eb91e137f8",
    "full/r1-down_r2-taps_b_r3-1111/seed3": "727b37463185ae44061a0ccb99b11285f790403a583e9ce8b55257730d50a305",
    "full/r1-down_r2-taps_b_r3-1010/seed3": "727b37463185ae44061a0ccb99b11285f790403a583e9ce8b55257730d50a305",
    "full/r1-down_r2-taps_b_r3-0101/seed3": "727b37463185ae44061a0ccb99b11285f790403a583e9ce8b55257730d50a305",
    "full/r1-down_r2-taps_b_r3-1000/seed3": "727b37463185ae44061a0ccb99b11285f790403a583e9ce8b55257730d50a305",
    "full/r1-down_r2-taps_c_r3-1111/seed3": "447c9c5ee28c948d168a4f18c29ba6394a9d23ee3bbd3416772e5c624ecfd0a5",
    "full/r1-down_r2-taps_c_r3-1010/seed3": "447c9c5ee28c948d168a4f18c29ba6394a9d23ee3bbd3416772e5c624ecfd0a5",
    "full/r1-down_r2-taps_c_r3-0101/seed3": "447c9c5ee28c948d168a4f18c29ba6394a9d23ee3bbd3416772e5c624ecfd0a5",
    "full/r1-down_r2-taps_c_r3-1000/seed3": "447c9c5ee28c948d168a4f18c29ba6394a9d23ee3bbd3416772e5c624ecfd0a5",
    "full/r1-step3_r2-taps_a_r3-1111/seed3": "ec8add03e5d2c43d0c48d65259f6bf107025a260c47a33a510080090e8975c0a",
    "full/r1-step3_r2-taps_a_r3-1010/seed3": "ec8add03e5d2c43d0c48d65259f6bf107025a260c47a33a510080090e8975c0a",
    "full/r1-step3_r2-taps_a_r3-0101/seed3": "ec8add03e5d2c43d0c48d65259f6bf107025a260c47a33a510080090e8975c0a",
    "full/r1-step3_r2-taps_a_r3-1000/seed3": "ec8add03e5d2c43d0c48d65259f6bf107025a260c47a33a510080090e8975c0a",
    "full/r1-step3_r2-taps_b_r3-1111/seed3": "ee3fc6915dc507b980cff9a8562023b45a62e8be03b2310351c7e7512a8d28df",
    "full/r1-step3_r2-taps_b_r3-1010/seed3": "ee3fc6915dc507b980cff9a8562023b45a62e8be03b2310351c7e7512a8d28df",
    "full/r1-step3_r2-taps_b_r3-0101/seed3": "ee3fc6915dc507b980cff9a8562023b45a62e8be03b2310351c7e7512a8d28df",
    "full/r1-step3_r2-taps_b_r3-1000/seed3": "ee3fc6915dc507b980cff9a8562023b45a62e8be03b2310351c7e7512a8d28df",
    "full/r1-step3_r2-taps_c_r3-1111/seed3": "feedfa4390fb51866b7794f296fcd21b8de202f9290fd94ab76161a4aaf243e4",
    "full/r1-step3_r2-taps_c_r3-1010/seed3": "feedfa4390fb51866b7794f296fcd21b8de202f9290fd94ab76161a4aaf243e4",
    "full/r1-step3_r2-taps_c_r3-0101/seed3": "feedfa4390fb51866b7794f296fcd21b8de202f9290fd94ab76161a4aaf243e4",
    "full/r1-step3_r2-taps_c_r3-1000/seed3": "feedfa4390fb51866b7794f296fcd21b8de202f9290fd94ab76161a4aaf243e4",
    "full/r1-up_r2-taps_a_r3-1111/seed11": "2ae8e33e3d2331323a6acd9649a044e3affe024b68a4b1819ddfabc96899c886",
    "full/r1-up_r2-taps_a_r3-1010/seed11": "2ae8e33e3d2331323a6acd9649a044e3affe024b68a4b1819ddfabc96899c886",
    "full/r1-up_r2-taps_a_r3-0101/seed11": "2ae8e33e3d2331323a6acd9649a044e3affe024b68a4b1819ddfabc96899c886",
    "full/r1-up_r2-taps_a_r3-1000/seed11": "2ae8e33e3d2331323a6acd9649a044e3affe024b68a4b1819ddfabc96899c886",
    "full/r1-up_r2-taps_b_r3-1111/seed11": "e81f064e6e26e1571ffbc6a793f93cf7fcdfa0df24a2ad613a8c23e0a0bda1a7",
    "full/r1-up_r2-taps_b_r3-1010/seed11": "e81f064e6e26e1571ffbc6a793f93cf7fcdfa0df24a2ad613a8c23e0a0bda1a7",
    "full/r1-up_r2-taps_b_r3-0101/seed11": "e81f064e6e26e1571ffbc6a793f93cf7fcdfa0df24a2ad613a8c23e0a0bda1a7",
    "full/r1-up_r2-taps_b_r3-1000/seed11": "e81f064e6e26e1571ffbc6a793f93cf7fcdfa0df24a2ad613a8c23e0a0bda1a7",
    "full/r1-up_r2-taps_c_r3-1111/seed11": "fc7b94114fe4778190b181b43aabe475fff35788d4fd724b310e7203e2eeb449",
    "full/r1-up_r2-taps_c_r3-1010/seed11": "fc7b94114fe4778190b181b43aabe475fff35788d4fd724b310e7203e2eeb449",
    "full/r1-up_r2-taps_c_r3-0101/seed11": "fc7b94114fe4778190b181b43aabe475fff35788d4fd724b310e7203e2eeb449",
    "full/r1-up_r2-taps_c_r3-1000/seed11": "fc7b94114fe4778190b181b43aabe475fff35788d4fd724b310e7203e2eeb449",
    "full/r1-down_r2-taps_a_r3-1111/seed11": "f6dfe1b301c5928cd02593fbf4db0394425b5503a763989ff4f87bf95567bbc6",
    "full/r1-down_r2-taps_a_r3-1010/seed11": "f6dfe1b301c5928cd02593fbf4db0394425b5503a763989ff4f87bf95567bbc6",
    "full/r1-down_r2-taps_a_r3-0101/seed11": "f6dfe1b301c5928cd02593fbf4db0394425b5503a763989ff4f87bf95567bbc6",
    "full/r1-down_r2-taps_a_r3-1000/seed11": "f6dfe1b301c5928cd02593fbf4db0394425b5503a763989ff4f87bf95567bbc6",
    "full/r1-down_r2-taps_b_r3-1111/seed11": "e863eeca0e8a5ca50ca5361ac52bff3564eb9cf881896dcb02f03b0438f438cf",
    "full/r1-down_r2-taps_b_r3-1010/seed11": "e863eeca0e8a5ca50ca5361ac52bff3564eb9cf881896dcb02f03b0438f438cf",
    "full/r1-down_r2-taps_b_r3-0101/seed11": "e863eeca0e8a5ca50ca5361ac52bff3564eb9cf881896dcb02f03b0438f438cf",
    "full/r1-down_r2-taps_b_r3-1000/seed11": "e863eeca0e8a5ca50ca5361ac52bff3564eb9cf881896dcb02f03b0438f438cf",
    "full/r1-down_r2-taps_c_r3-1111/seed11": "fcf01853553280ae34975460f9e7d8f17904bd14fa9da890637fedebbce48640",
    "full/r1-down_r2-taps_c_r3-1010/seed11": "fcf01853553280ae34975460f9e7d8f17904bd14fa9da890637fedebbce48640",
    "full/r1-down_r2-taps_c_r3-0101/seed11": "fcf01853553280ae34975460f9e7d8f17904bd14fa9da890637fedebbce48640",
    "full/r1-down_r2-taps_c_r3-1000/seed11": "fcf01853553280ae34975460f9e7d8f17904bd14fa9da890637fedebbce48640",
    "full/r1-step3_r2-taps_a_r3-1111/seed11": "1a04f7489f4952fddf8005d79f0f7d9399f361d4def9c0aab24eaa4aba06aa38",
    "full/r1-step3_r2-taps_a_r3-1010/seed11": "1a04f7489f4952fddf8005d79f0f7d9399f361d4def9c0aab24eaa4aba06aa38",
    "full/r1-step3_r2-taps_a_r3-0101/seed11": "1a04f7489f4952fddf8005d79f0f7d9399f361d4def9c0aab24eaa4aba06aa38",
    "full/r1-step3_r2-taps_a_r3-1000/seed11": "1a04f7489f4952fddf8005d79f0f7d9399f361d4def9c0aab24eaa4aba06aa38",
    "full/r1-step3_r2-taps_b_r3-1111/seed11": "5811b80d7071dcb7b6c6d206dc6d1150555c9d7e784a9a8d3be921c89d0c170f",
    "full/r1-step3_r2-taps_b_r3-1010/seed11": "5811b80d7071dcb7b6c6d206dc6d1150555c9d7e784a9a8d3be921c89d0c170f",
    "full/r1-step3_r2-taps_b_r3-0101/seed11": "5811b80d7071dcb7b6c6d206dc6d1150555c9d7e784a9a8d3be921c89d0c170f",
    "full/r1-step3_r2-taps_b_r3-1000/seed11": "5811b80d7071dcb7b6c6d206dc6d1150555c9d7e784a9a8d3be921c89d0c170f",
    "full/r1-step3_r2-taps_c_r3-1111/seed11": "6aabe80bf102db11bffc503955954ed352182bb76f09821f962a6ce353c2f9b9",
    "full/r1-step3_r2-taps_c_r3-1010/seed11": "6aabe80bf102db11bffc503955954ed352182bb76f09821f962a6ce353c2f9b9",
    "full/r1-step3_r2-taps_c_r3-0101/seed11": "6aabe80bf102db11bffc503955954ed352182bb76f09821f962a6ce353c2f9b9",
    "full/r1-step3_r2-taps_c_r3-1000/seed11": "6aabe80bf102db11bffc503955954ed352182bb76f09821f962a6ce353c2f9b9",
    "base/seed0": "47085bfc7306bc8208e9350868cdac4c5811d370fe0668c0a4092a7e9a88e05d",
    "r1/up/seed0": "f336b0bc38eae139348854f54a56d1356530168fb930a2d2360adb00f57f7fdd",
    "r1/down/seed0": "6e64f7d1a7c38406ee4a6801be0b00ca9ebf1b3fd67dd283edd44e1155e56861",
    "r1/step3/seed0": "756b4429d139c8aba0f8de356ad0d849bc8bb92870c7e6235420b6f901af5e03",
    "r2/taps_a/seed0": "69905cf2aca19f85c7e43946a178bb9a030bb79a02791f1b2a45f1729c60ec62",
    "r2/taps_b/seed0": "69905cf2aca19f85c7e43946a178bb9a030bb79a02791f1b2a45f1729c60ec62",
    "r2/taps_c/seed0": "69905cf2aca19f85c7e43946a178bb9a030bb79a02791f1b2a45f1729c60ec62",
    "r3/1111/seed0": "8c1d7b14fddff3ede619e306d69aa157351e11be7e74417f1396af00745733d7",
    "r3/1010/seed0": "8c1d7b14fddff3ede619e306d69aa157351e11be7e74417f1396af00745733d7",
    "r3/0101/seed0": "8c1d7b14fddff3ede619e306d69aa157351e11be7e74417f1396af00745733d7",
    "r3/1000/seed0": "8c1d7b14fddff3ede619e306d69aa157351e11be7e74417f1396af00745733d7",
    "base/seed5": "46ed12a5c34f59d6a9a7e4310933dec99818f0798829a97ab1ece158ed721383",
    "r1/up/seed5": "de271974300c2f3f4810fa88539999a54bdddf89222b16657f437ed494a84762",
    "r1/down/seed5": "d50f89cf8bf782abc07723436d1c9d364b4663487f7134affff3e9b5362c6e42",
    "r1/step3/seed5": "a2f54cd830f9d1a0c0c214d61083242d6dd5ac06902339d367abe32c93ef4c91",
    "r2/taps_a/seed5": "2f4399deb91b290ee731a160556117b936441526b817cac2d200441a94e5261a",
    "r2/taps_b/seed5": "5236be3f62544928d0e4f9ca140953e44718d69311f47371d2ebb397a8841582",
    "r2/taps_c/seed5": "4ddaad4cb5b68b8b67d5ceba4528386400c542451635e478cf567e8c3175b3b3",
    "r3/1111/seed5": "99908093b4e6511c2388cca058f1e42646f96ee9121a26e6fc555440500f9a9b",
    "r3/1010/seed5": "99908093b4e6511c2388cca058f1e42646f96ee9121a26e6fc555440500f9a9b",
    "r3/0101/seed5": "99908093b4e6511c2388cca058f1e42646f96ee9121a26e6fc555440500f9a9b",
    "r3/1000/seed5": "99908093b4e6511c2388cca058f1e42646f96ee9121a26e6fc555440500f9a9b",
}


def placement_digest(design, stats) -> str:
    """sha256 over a placed design's sites, move counts and final cost."""
    h = hashlib.sha256()
    for name in sorted(design.slices):
        h.update(f"S {name} {design.slices[name].site}\n".encode())
    for name in sorted(design.iobs):
        h.update(f"I {name} {design.iobs[name].site}\n".encode())
    h.update(f"M {stats.moves_attempted} {stats.moves_accepted} "
             f"{stats.final_cost!r}\n".encode())
    return h.hexdigest()


def _packed(width):
    nl, _ = build_counter_netlist(width)
    techmap(nl)
    return pack(nl, "XCV50")[0]


def xcv50_placements():
    """Yield (label, placed design, placement stats) for the XCV50
    designs."""
    for width in (4, 8):
        for seed in (1, 7, 9, 42):
            design = _packed(width)
            stats = place(design, seed=seed)
            yield f"counter{width}/seed{seed}", design, stats
    cons = Constraints(groups=[AreaGroup("AG", ["u1/*"], RegionRect(0, 2, 15, 7))])
    design = _packed(8)
    stats = place(design, cons, seed=3)
    yield "counter8/region/seed3", design, stats
    nl, _ = build_counter_netlist(6)
    base = run_flow(nl, "XCV50", seed=2)
    yield "flow6/seed2", base.design, base.place_stats
    guided = run_flow(nl, "XCV50", guide=base.design, seed=2)
    yield "flow6/guided/seed2", guided.design, guided.place_stats


def xcv50_digests():
    """Yield (label, digest) for the XCV50 designs."""
    for label, design, stats in xcv50_placements():
        yield label, placement_digest(design, stats)


def xcv100_digests(flow=run_flow):
    """Yield (label, digest) for the Figure-4 sweep on XCV100, running
    each flow through ``flow``."""
    part = "XCV100"
    plans = figure4_plan(part)
    constraints = flow_constraints(plans)
    for seed in (0, 3, 11):
        for choice in enumerate_combinations(plans):
            label = "_".join(f"{r}-{v}" for r, v in sorted(choice.items()))
            netlist = build_combination_netlist(f"combo_{label}", plans, choice)
            result = flow(netlist, part, constraints, seed=seed)
            yield (f"full/{label}/seed{seed}",
                   placement_digest(result.design, result.place_stats))
    for seed in (0, 5):
        base = flow(build_base_netlist("xcv100_base", plans), part,
                    constraints, seed=seed)
        yield f"base/seed{seed}", placement_digest(base.design, base.place_stats)
        for plan in plans:
            for spec in plan.variants:
                version = version_name(spec)
                netlist = build_module_netlist(f"{plan.name}_{version}", plan.name, spec)
                result = flow(netlist, part, flow_constraints([plan]),
                              guide=base.design, seed=seed)
                yield (f"{plan.name}/{version}/seed{seed}",
                       placement_digest(result.design, result.place_stats))


def test_xcv50_placements_match_golden():
    assert dict(xcv50_digests()) == GOLDEN_XCV50


def test_xcv50_initial_costs_match_golden():
    got = {label: st.initial_cost for label, _, st in xcv50_placements()}
    assert got == GOLDEN_XCV50_INITIAL_COST


@pytest.mark.slow
def test_xcv100_sweep_matches_golden():
    cached = []

    def fresh_then_cached(*args, **kwargs):
        fresh = run_flow(*args, **kwargs)
        hit = run_flow(*args, **kwargs)
        assert (fresh.cached, hit.cached) == (False, True)
        cached.append(placement_digest(hit.design, hit.place_stats))
        return fresh

    digests = dict(xcv100_digests(fresh_then_cached))
    assert len(digests) == 36 * 3 + 2 * (1 + 10)
    assert digests == GOLDEN_XCV100
    assert dict(zip(digests, cached)) == GOLDEN_XCV100


if __name__ == "__main__":  # print the tables to paste above
    for title, rows in (("GOLDEN_XCV50", xcv50_digests()),
                        ("GOLDEN_XCV100", xcv100_digests())):
        print(f"{title} = {{")
        for label, digest in rows:
            print(f'    "{label}": "{digest}",')
        print("}\n")
    print("GOLDEN_XCV50_INITIAL_COST = {")
    for label, _, stats in xcv50_placements():
        print(f'    "{label}": {stats.initial_cost!r},')
    print("}")
